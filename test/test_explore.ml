(* Schedule-explorer regression tests.

   The checked-in artifacts under test/schedules/ are shrunk failing
   schedules for the three injected race bugs; replaying each one must
   reproduce its recorded oracle violation deterministically, and each
   must stay small (the ISSUE's <= 8 preemption points bound). The
   round-robin baseline must stay blind to all three bugs — that
   asymmetry is the whole point of the explorer. *)

module Explore = Mir_explore.Explore
module Scenario = Mir_explore.Scenario
module Oracle = Mir_explore.Oracle
module Schedule = Mir_trace.Schedule
module Shrink = Mir_fuzz.Shrink
module Machine = Mir_rv.Machine
module Config = Miralis.Config

let schedule_files =
  [
    "msip-drop.jsonl";
    "vm-epoch.jsonl";
    "pmp-handoff.jsonl";
    "ace-stale-ownership.jsonl";
  ]

let load_schedule file =
  match Schedule.load ~path:(Filename.concat "schedules" file) with
  | Ok sch -> sch
  | Error e -> Alcotest.failf "%s: %s" file e

let test_replay_reproduces file () =
  let sch = load_schedule file in
  Alcotest.(check bool)
    "artifact is shrunk (<= 8 preemption points)" true
    (Schedule.preemption_points sch <= 8);
  match Explore.replay sch with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok o ->
      Alcotest.(check bool) "violation reproduced" true
        (Explore.reproduces sch o);
      (match o.Explore.violation with
      | Some v ->
          Alcotest.(check string) "same oracle" sch.Schedule.oracle
            v.Oracle.oracle
      | None -> Alcotest.fail "replay produced no violation");
      (* determinism: a second fresh replay lands on the same step *)
      (match Explore.replay sch with
      | Ok o2 ->
          Alcotest.(check int) "deterministic step count" o.Explore.steps
            o2.Explore.steps
      | Error e -> Alcotest.failf "second replay failed: %s" e)

(* Saving a checked-in schedule writes its file back byte for byte,
   and loading that copy gives the same schedule, so the replays above
   also cover the round trip. *)
let test_roundtrip () =
  List.iter
    (fun file ->
      let sch = load_schedule file in
      let path = Filename.temp_file "mir_schedule" ".jsonl" in
      Schedule.save sch ~path;
      let read p = In_channel.with_open_bin p In_channel.input_all in
      Alcotest.(check string)
        (file ^ " saved byte for byte")
        (read (Filename.concat "schedules" file))
        (read path);
      let back = Schedule.load ~path in
      Sys.remove path;
      Alcotest.(check bool) (file ^ " loads back equal") true (back = Ok sch))
    schedule_files

(* A malformed or missing file is a diagnostic that names the file and,
   for a malformed one, the line; loading never raises. *)
let test_malformed_rejected () =
  let meta =
    {|{"v":1,"scenario":"ipi","bug":"msip-drop","seed":"0x1","nharts":2,|}
    ^ {|"steps":10,"oracle":"msip-delivery"}|}
  in
  List.iter
    (fun (name, text, line) ->
      let path = Filename.temp_file ("mir_schedule_" ^ name) ".jsonl" in
      (match text with
      | Some t -> Out_channel.with_open_bin path (fun oc -> output_string oc t)
      | None -> Sys.remove path);
      let loaded = try Ok (Schedule.load ~path) with ex -> Error ex in
      if Sys.file_exists path then Sys.remove path;
      let prefix =
        match line with
        | Some n -> Printf.sprintf "%s:%d: " path n
        | None -> path ^ ": "
      in
      match loaded with
      | Error ex -> Alcotest.failf "%s: raised %s" name (Printexc.to_string ex)
      | Ok (Ok _) -> Alcotest.failf "%s: accepted" name
      | Ok (Error e) ->
          if not (String.starts_with ~prefix e) then
            Alcotest.failf "%s: diagnostic %S lacks %S" name e prefix)
    [
      ("empty", Some "", Some 1);
      ("no-bug", Some {|{"v":1,"scenario":"ipi"}|}, Some 1);
      ( "bad-switch",
        Some (meta ^ "\n{\"at\":0,\"hart\":0}\n{\"at\":\"x\",\"hart\":1}\n"),
        Some 3 );
      ("hart-out-of-range", Some (meta ^ "\n\n{\"at\":0,\"hart\":2}\n"), Some 3);
      ("missing", None, None);
    ]

(* Round-robin never catches any injected bug: its switch points are
   periodic, never adjacent to the trap windows the bugs need. *)
let test_round_robin_blind bug () =
  let scn = Explore.scenario_for_bug bug in
  let c =
    Explore.run_family scn ~bug ~family:Explore.Rr ~seed:Config.default_seed
      ~max_schedules:1 ~nharts:2 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "round-robin misses %s" (Explore.bug_name bug))
    true
    (c.Explore.caught = None)

(* The preemptive families are the other half of the asymmetry: both
   the random walk and PCT must find the ACE stale-ownership leak
   within a modest schedule budget. *)
let test_preemptive_catches family () =
  let bug = Machine.Ace_stale_ownership in
  let scn = Explore.scenario_for_bug bug in
  let c =
    Explore.run_family scn ~bug ~family ~seed:Config.default_seed
      ~max_schedules:50 ~nharts:2 ()
  in
  match c.Explore.caught with
  | Some (v, _) ->
      Alcotest.(check string) "caught by the confidentiality oracle"
        "cvm-confidential" v.Oracle.oracle
  | None ->
      Alcotest.failf "%s missed ace-stale-ownership in %d schedules"
        (Explore.family_name family) c.Explore.schedules_run

(* Without any injected bug every scenario is oracle-clean under the
   random schedules too — the oracles have no false positives. *)
let test_no_bug_clean scn () =
  List.iter
    (fun family ->
      let c =
        Explore.run_family scn ~family ~seed:Config.default_seed
          ~max_schedules:5 ~nharts:2 ()
      in
      match c.Explore.caught with
      | None -> ()
      | Some (v, _) ->
          Alcotest.failf "%s/%s: spurious %s violation" scn.Scenario.name
            (Explore.family_name family) v.Oracle.oracle)
    [ Explore.Rr; Explore.Random ]

(* The PR 2 shrinker underlying ddmin_tail: pinned head, minimal
   failing subset otherwise. *)
let test_ddmin_unit () =
  let items = List.init 10 (fun i -> i + 1) in
  let still_fails l = List.mem 3 l && List.mem 7 l in
  Alcotest.(check (list int))
    "minimal subset (head pinned)" [ 1; 3; 7 ]
    (Shrink.ddmin ~still_fails items)

let () =
  Alcotest.run "explore"
    [
      ( "replay",
        List.map
          (fun file ->
            Alcotest.test_case file `Slow (test_replay_reproduces file))
          schedule_files );
      ( "artifacts",
        [
          Alcotest.test_case "schedules round-trip" `Quick test_roundtrip;
          Alcotest.test_case "malformed schedules rejected" `Quick
            test_malformed_rejected;
        ] );
      ( "round-robin blind",
        List.map
          (fun bug ->
            Alcotest.test_case (Explore.bug_name bug) `Slow
              (test_round_robin_blind bug))
          [
            Machine.Dropped_msip;
            Machine.Delayed_vm_epoch;
            Machine.Pmp_handoff_window;
            Machine.Ace_stale_ownership;
          ] );
      ( "preemptive schedulers catch",
        List.map
          (fun family ->
            Alcotest.test_case
              (Printf.sprintf "%s catches ace-stale-ownership"
                 (Explore.family_name family))
              `Slow (test_preemptive_catches family))
          [ Explore.Random; Explore.Pct ] );
      ( "oracles",
        List.map
          (fun scn ->
            Alcotest.test_case
              (scn.Scenario.name ^ " clean without bug")
              `Slow (test_no_bug_clean scn))
          Scenario.all );
      ("shrink", [ Alcotest.test_case "ddmin unit" `Quick test_ddmin_unit ]);
    ]
