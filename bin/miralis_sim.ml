(* miralis-sim: the command-line front end.

   Subcommands:
     run          boot a firmware natively or under Miralis
     verify       prove or sample each Table 2 verification row
     experiments  regenerate the paper's tables and figures
     platforms    list the platform models *)

open Cmdliner
module Setup = Mir_harness.Setup
module Script = Mir_kernel.Script
module Platform = Mir_platform.Platform
module Machine = Mir_rv.Machine

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

(* A one-line usage error, exit 2. *)
let usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("miralis-sim: " ^ msg);
      exit 2)
    fmt

let platform_arg =
  let parse s =
    match Platform.by_name s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown platform %S (known: %s)" s
               (String.concat ", "
                  (List.map (fun p -> p.Platform.name) Platform.all))))
  in
  let print fmt p = Format.pp_print_string fmt p.Platform.name in
  Arg.(
    value
    & opt (conv (parse, print)) Platform.visionfive2
    & info [ "p"; "platform" ] ~docv:"NAME" ~doc:"Platform model to simulate.")

let mode_arg =
  let modes =
    [
      ("native", Setup.Native);
      ("miralis", Setup.Virtualized);
      ("no-offload", Setup.Virtualized_no_offload);
    ]
  in
  Arg.(
    value
    & opt (enum modes) Setup.Virtualized
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:"Execution mode: $(b,native), $(b,miralis) or $(b,no-offload).")

let firmware_choices =
  [
    ("minisbi", `Minisbi); ("rustsbi", `Rustsbi); ("zephyr", `Zephyr);
    ("star64", `Star64); ("evil-read", `Evil Mir_firmware.Evil.Read_os_memory);
    ("evil-write", `Evil Mir_firmware.Evil.Write_os_memory);
    ("evil-miralis", `Evil Mir_firmware.Evil.Read_miralis_memory);
    ("evil-pmp", `Evil Mir_firmware.Evil.Pmp_escape);
    ("evil-dma", `Evil Mir_firmware.Evil.Dma_attack);
  ]

let firmware_arg =
  Arg.(
    value
    & opt (enum firmware_choices) `Minisbi
    & info [ "f"; "firmware" ] ~docv:"FW"
        ~doc:
          "Firmware image: $(b,minisbi), $(b,rustsbi), $(b,zephyr), \
           $(b,star64) or an $(b,evil-*) attack image.")

let firmware_image = function
  | `Minisbi -> Mir_firmware.Minisbi.image
  | `Rustsbi -> Mir_firmware.Rustsbi_like.image
  | `Zephyr -> Mir_firmware.Zephyr_like.image
  | `Star64 -> Mir_firmware.Star64.image
  | `Evil a -> Mir_firmware.Evil.image a

let policy_arg =
  Arg.(
    value
    & opt (enum [ ("none", `None); ("sandbox", `Sandbox) ]) `None
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Isolation policy: $(b,none) or $(b,sandbox). A policy runs in \
           Miralis, so it needs mode $(b,miralis) or $(b,no-offload).")

let max_instrs_arg =
  Arg.(
    value
    & opt int64 50_000_000L
    & info [ "max-instrs" ] ~docv:"N" ~doc:"Instruction budget.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Print every trap that reaches M-mode.")

let record_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:"Record the execution's event log to $(docv) (JSON lines).")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Re-execute while verifying every event against the log in \
           $(docv); exits non-zero on the first divergence.")

let checkpoint_arg =
  Arg.(
    value & opt int64 0L
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "With $(b,--record), take an architectural checkpoint every \
           $(docv) instructions (0 disables).")

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let smoke_script =
  [
    Script.Putchar 'o'; Script.Rdtime; Script.Set_timer 200L;
    Script.Tick_wfi 100L; Script.Ipi_self; Script.Misaligned_load;
    Script.Putchar 'k'; Script.Putchar '\n'; Script.End;
  ]

let run_cmd platform mode fw policy max_instrs trace record_file replay_file
    checkpoint_every no_block_engine =
  let policy, policy_pmp_slots =
    match policy with
    | `None -> (None, None)
    | `Sandbox ->
        let p, _ = Mir_policies.Policy_sandbox.create () in
        (Some p, Some Mir_policies.Policy_sandbox.pmp_slots)
  in
  let sys =
    try
      Setup.create ?policy ?policy_pmp_slots ~firmware:(firmware_image fw)
        platform mode
    with Invalid_argument msg -> usage "%s" msg
  in
  if no_block_engine then Machine.set_block_engine sys.Setup.machine false;
  if trace then
    sys.Setup.machine.Machine.on_trap <-
      Some
        (fun _ hart cause ~from_priv ~to_m ->
          Printf.printf "[trap] hart%d pc=%Lx %s from=%s -> %s\n"
            hart.Mir_rv.Hart.id hart.Mir_rv.Hart.pc
            (Mir_rv.Cause.to_string cause)
            (Mir_rv.Priv.to_string from_priv)
            (if to_m then "M" else "S"));
  if record_file <> None && replay_file <> None then
    usage "--record and --replay are mutually exclusive";
  let recording =
    match record_file with
    | None -> None
    | Some path ->
        (* fail on an unwritable destination now, not after the run *)
        (try close_out (open_out path)
         with Sys_error msg -> usage "cannot write trace: %s" msg);
        let recorder, _tracer = Setup.attach_recorder sys in
        let mgr =
          if checkpoint_every > 0L then
            Some
              (Setup.checkpoint_manager sys ~every:checkpoint_every
                 ~events_seen:(fun () -> Mir_trace.Recorder.count recorder))
          else None
        in
        Some (path, recorder, mgr)
  in
  let replaying =
    match replay_file with
    | None -> None
    | Some path -> begin
        match Mir_trace.Recorder.load ~path with
        | Error msg -> usage "cannot load trace %s: %s" path msg
        | Ok events ->
            let replay, _tracer = Setup.attach_replay sys ~events in
            Some replay
      end
  in
  Setup.run_scripts ~max_instrs sys [ smoke_script ];
  if Machine.quiescent sys.Setup.machine then
    print_endline
      "run: stopped: every live hart idles in wfi and nothing can wake it";
  Printf.printf "console: %s" (Setup.uart_output sys);
  Printf.printf "simulated: %.3f ms on %s (%s)\n"
    (Setup.seconds sys *. 1e3)
    platform.Platform.name (Setup.mode_name sys.Setup.mode);
  (match Setup.stats sys with
  | Some stats -> Format.printf "%a@." Miralis.Vfm_stats.pp stats
  | None -> ());
  (let hits, misses, flushes = Machine.tlb_totals sys.Setup.machine in
   Printf.printf "tlb: hits=%d misses=%d flushes=%d\n" hits misses flushes);
  (match sys.Setup.miralis with
  | Some { Miralis.Monitor.violation = Some v; _ } ->
      Printf.printf "policy violation: %s\n" v
  | _ -> ());
  (match recording with
  | Some (path, recorder, mgr) ->
      Mir_trace.Recorder.save recorder ~path;
      Printf.printf "recorded %d events to %s%s\n"
        (Mir_trace.Recorder.count recorder)
        path
        (match Mir_trace.Recorder.dropped recorder with
        | 0 -> ""
        | n -> Printf.sprintf " (%d oldest dropped!)" n);
      (match mgr with
      | Some m ->
          Printf.printf "checkpoints: %d\n"
            (List.length (Mir_trace.Snapshot.checkpoints m))
      | None -> ());
      Printf.printf "final state hash: %016Lx\n" (Setup.state_hash sys)
  | None -> ());
  match replaying with
  | Some replay ->
      let outcome = Mir_trace.Replay.finish replay in
      Format.printf "%a@." Mir_trace.Replay.pp_outcome outcome;
      Printf.printf "final state hash: %016Lx\n" (Setup.state_hash sys);
      (match outcome with Mir_trace.Replay.Match _ -> () | _ -> exit 1)
  | None -> ()

let no_block_engine_arg =
  Arg.(
    value & flag
    & info [ "no-block-engine" ]
        ~doc:
          "Execute through the per-instruction interpreter instead of the \
           decoded basic-block engine. Architecturally identical (the \
           engine is bit-exact against the interpreter; digests and \
           recorded traces agree either way), just slower — useful for \
           isolating the engine when debugging, and as the differential \
           baseline.")

let run_term =
  Term.(
    const run_cmd $ platform_arg $ mode_arg $ firmware_arg $ policy_arg
    $ max_instrs_arg $ trace_arg $ record_arg $ replay_arg $ checkpoint_arg
    $ no_block_engine_arg)

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let parse_bug = function
  | "" -> None
  | "mpp" -> Some Miralis.Config.Mpp_not_legalized
  | "pmp-wr" -> Some Miralis.Config.Pmp_w_without_r
  | "vpmp-overrun" -> Some Miralis.Config.Vpmp_overrun
  | "irq-priority" -> Some Miralis.Config.Interrupt_priority_swapped
  | "mret-mpie" -> Some Miralis.Config.Mret_skips_mpie
  | other ->
      usage
        "unknown bug injection %S (known: mpp, pmp-wr, vpmp-overrun, \
         irq-priority, mret-mpie)"
        other

let inject_bug_arg =
  Arg.(
    value & opt string ""
    & info [ "inject-bug" ] ~docv:"BUG"
        ~doc:
          "Inject a §6.5 bug class: $(b,mpp), $(b,pmp-wr), \
           $(b,vpmp-overrun), $(b,irq-priority), $(b,mret-mpie).")

let seed_arg =
  Arg.(
    value
    & opt int64 Miralis.Config.default_seed
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Root PRNG seed for all sampled checkers.")

let verify_cmd quick bug seed =
  let inject_bug = parse_bug bug in
  Printf.printf "seed: 0x%Lx (reproduce with --seed 0x%Lx)\n" seed seed;
  let reports = Mir_verif.Tasks.all ~quick ?inject_bug ~seed () in
  List.iter (fun r -> Format.printf "%a@." Mir_verif.Tasks.pp_report r) reports;
  if inject_bug <> None then begin
    let detected =
      List.exists (fun r -> r.Mir_verif.Tasks.mismatches > 0) reports
    in
    Printf.printf "\nbug injection %s %s\n" bug
      (if detected then "DETECTED (as expected)"
       else "NOT detected: checker gap!");
    if not detected then exit 1
  end
  else if not (List.for_all Mir_verif.Tasks.passed reports) then exit 1

let verify_term =
  Term.(
    const verify_cmd
    $ Arg.(
        value & flag
        & info [ "quick" ]
            ~doc:
              "Sample counts divided by ten, and the CSR proofs sweep the \
               implemented addresses plus the interesting corners instead \
               of all 4096.")
    $ inject_bug_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

module Difftest = Mir_fuzz.Difftest
module Families = Mir_fuzz.Families

let fuzz_cmd seed max_execs corpus_dir bug replay_path emit_dir family =
  let inject_bug = parse_bug bug in
  (* a flag the chosen mode does not use is an error, never ignored *)
  let only mode allowed =
    List.iter
      (fun (flag, set) ->
        if set && not (List.mem flag allowed) then
          usage "%s does not apply to %s" flag mode)
      [
        ("--seed", seed <> None); ("--max-execs", max_execs <> None);
        ("--corpus", corpus_dir <> None); ("--inject-bug", bug <> "");
        ("--family", family <> None);
      ]
  in
  let seed = Option.value seed ~default:Miralis.Config.default_seed in
  (* exit 0 iff the outcome is the expected one: no divergence, or the
     injected bug detected *)
  let verdict_exit diverged =
    match (inject_bug, diverged) with
    | None, d -> exit (Bool.to_int d)
    | Some _, true -> print_endline "bug injection DETECTED (as expected)"
    | Some _, false ->
        Printf.printf "bug injection %s NOT detected: fuzzer gap!\n" bug;
        exit 1
  in
  match (emit_dir, replay_path) with
  | Some _, Some _ -> usage "--emit-vectors and --replay are exclusive"
  | Some dir, None -> (
      only "--emit-vectors" [];
      match Difftest.emit Families.all ~dir with
      | Ok paths ->
          Printf.printf "wrote %d builtin vectors to %s\n" (List.length paths)
            dir
      | Error msg -> usage "%s" msg)
  | None, Some path -> (
      only "--replay" [ "--seed"; "--inject-bug" ];
      match Difftest.replay_path Families.all ?inject_bug ~seed path with
      | Error diagnostics -> usage "%s" (String.concat "\n" diagnostics)
      | Ok verdicts ->
          Format.printf "%a@?" Difftest.pp_verdicts verdicts;
          verdict_exit
            (List.exists (fun v -> v.Difftest.failures <> []) verdicts))
  | None, None -> (
      let name = Option.value family ~default:"isa" in
      match Families.find name with
      | None ->
          usage "unknown family %S (known: isa, paging, blocks, ace)" name
      | Some (module D) ->
          if inject_bug <> None then
            Result.iter_error
              (usage "--inject-bug %s: %s" bug)
              (D.create ?inject_bug ~seed ());
          let max_execs = Option.value max_execs ~default:20_000 in
          let bug_flag = if bug = "" then "" else " --inject-bug " ^ bug in
          Printf.printf "fuzz --family %s: seed=0x%Lx max-execs=%d%s\n%!"
            D.name seed max_execs bug_flag;
          let r =
            try D.run ?inject_bug ?corpus_dir ~seed ~max_execs ()
            with Sys_error msg -> usage "%s" msg
          in
          Format.printf "%a@?" D.pp_result r;
          if r.D.divergence <> None then
            Printf.printf
              "reproduce with: fuzz --family %s --seed 0x%Lx%s \
               --max-execs %d\n"
              D.name seed bug_flag max_execs;
          verdict_exit (r.D.divergence <> None))

let fuzz_term =
  let opt c name docv doc =
    Arg.(value & opt (some c) None & info [ name ] ~docv ~doc)
  in
  Term.(
    const fuzz_cmd
    $ opt Arg.int64 "seed" "SEED" "Root PRNG seed of the campaign or replay."
    $ opt Arg.int "max-execs" "N" "Campaign execution budget (default 20000)."
    $ opt Arg.string "corpus" "DIR"
        "Persist coverage-increasing cases, crashes and the coverage map to \
         $(docv)."
    $ inject_bug_arg
    $ opt Arg.string "replay" "PATH"
        "Replay a vector file or directory instead of fuzzing; each file's \
         header picks its family. Exits 1 on divergence, 2 on a missing, \
         empty or malformed vector."
    $ opt Arg.string "emit-vectors" "DIR"
        "Write every family's builtin vectors to $(docv) and exit."
    $ opt Arg.string "family" "FAMILY"
        "The campaign's family: $(b,isa) (the emulator against the reference \
         machine, the default), $(b,paging) (TLB against raw walker), \
         $(b,blocks) (block engine against interpreter) or $(b,ace) (ACE \
         policy against its steal/return model). Exits 1 on divergence, \
         after shrinking.")

(* ------------------------------------------------------------------ *)
(* explore                                                             *)
(* ------------------------------------------------------------------ *)

module Explore = Mir_explore.Explore
module Scenario = Mir_explore.Scenario
module Schedule = Mir_trace.Schedule

let explore_scenarios = function
  | "" -> Scenario.all
  | name -> (
      match Scenario.find name with
      | Some s -> [ s ]
      | None ->
          usage "unknown scenario %S (known: %s)" name
            (String.concat ", "
               (List.map (fun s -> s.Scenario.name) Scenario.all)))

(* Smoke mode: no bug injected; every oracle must stay clean under
   every scheduler family. *)
let explore_smoke scenarios ~seed ~max_schedules ~nharts =
  let clean = ref true in
  List.iter
    (fun scn ->
      List.iter
        (fun family ->
          let budget =
            match family with
            | Explore.Rr -> 1
            | _ -> max 1 (max_schedules / 2)
          in
          let c =
            Explore.run_family scn ~family ~seed ~max_schedules:budget ~nharts
              ()
          in
          Printf.printf "%-8s %-11s %4d schedules, %7d steps%s\n"
            scn.Scenario.name
            (Explore.family_name family)
            c.Explore.schedules_run c.Explore.steps_total
            (match c.Explore.caught with
            | None -> ""
            | Some (v, _) ->
                clean := false;
                Printf.sprintf "  VIOLATION %s (hart %d): %s" v.oracle v.hart
                  v.detail))
        [ Explore.Rr; Explore.Random; Explore.Pct ])
    scenarios;
  if !clean then Printf.printf "all oracles clean\n" else exit 1

(* Injection mode: the explorer must catch the armed race with a
   preemptive scheduler while plain round-robin stays green. *)
let explore_inject bug ~seed ~max_schedules ~nharts ~emit =
  let scn = Explore.scenario_for_bug bug in
  let name = Explore.bug_name bug in
  Printf.printf "inject-bug %s -> scenario %s (seed 0x%Lx)\n" name
    scn.Scenario.name seed;
  let rr =
    Explore.run_family scn ~bug ~family:Explore.Rr ~seed ~max_schedules:1
      ~nharts ()
  in
  (match rr.Explore.caught with
  | None -> Printf.printf "round-robin: clean (bug hides from the baseline)\n"
  | Some (v, _) ->
      Printf.printf "round-robin: CAUGHT %s — bug visible without preemption\n"
        v.oracle);
  let caught = ref None in
  List.iter
    (fun family ->
      if !caught = None then begin
        let c =
          Explore.run_family scn ~bug ~family ~seed ~max_schedules ~nharts ()
        in
        match c.Explore.caught with
        | Some (v, sch) ->
            Printf.printf "%s: caught %s after %d schedules (hart %d: %s)\n"
              (Explore.family_name family)
              v.oracle c.Explore.schedules_run v.hart v.detail;
            caught := Some sch
        | None ->
            Printf.printf "%s: not caught in %d schedules\n"
              (Explore.family_name family)
              c.Explore.schedules_run
      end)
    [ Explore.Random; Explore.Pct; Explore.Dfs ];
  match !caught with
  | None ->
      Printf.printf "bug injection %s NOT caught: explorer gap!\n" name;
      exit 1
  | Some sch ->
      let shrunk = Explore.shrink sch in
      Printf.printf "shrunk %d -> %d preemption points\n"
        (Schedule.preemption_points sch)
        (Schedule.preemption_points shrunk);
      (match emit with
      | Some path ->
          Schedule.save shrunk ~path;
          Printf.printf "schedule written to %s\n" path
      | None -> ());
      if rr.Explore.caught <> None then exit 1

(* Every file loads before any replays: a missing path, an empty
   directory or a malformed schedule exits 2; a schedule that does not
   reproduce its verdict exits 1. *)
let explore_replay path =
  let schedules =
    match Mir_trace.Event.jsonl_files path with
    | Error e -> usage "%s" e
    | Ok files ->
        List.map
          (fun p ->
            match Schedule.load ~path:p with
            | Ok sch -> (p, sch)
            | Error e -> usage "%s" e)
          files
  in
  let failed = ref false in
  List.iter
    (fun (p, sch) ->
      match Explore.replay sch with
      | Error e -> usage "%s: %s" p e
      | Ok o ->
          if Explore.reproduces sch o then
            Printf.printf "%s: reproduced %s (%d preemption points)\n" p
              sch.Schedule.oracle
              (Schedule.preemption_points sch)
          else begin
            Printf.printf "%s: DIVERGED (expected oracle %S, got %s)\n" p
              sch.Schedule.oracle
              (match o.Explore.violation with
              | Some v -> v.Mir_explore.Oracle.oracle
              | None -> "no violation");
            failed := true
          end)
    schedules;
  if !failed then exit 1

let explore_cmd scenario seed max_schedules harts bug replay emit =
  match replay with
  | Some path -> explore_replay path
  | None -> (
      match bug with
      | "" ->
          explore_smoke
            (explore_scenarios scenario)
            ~seed ~max_schedules ~nharts:harts
      | name -> (
          match Explore.bug_of_name name with
          | Ok (Some bug) ->
              explore_inject bug ~seed ~max_schedules ~nharts:harts ~emit
          | Ok None | Error _ ->
              usage
                "unknown race bug %S (known: vm-epoch, msip-drop, \
                 pmp-handoff, ace-stale-ownership)"
                name))

let explore_term =
  Term.(
    const explore_cmd
    $ Arg.(
        value & opt string ""
        & info [ "scenario" ] ~docv:"NAME"
            ~doc:
              "Restrict to one scenario: $(b,ipi), $(b,sfence), \
               $(b,keystone), $(b,ace). Default: all.")
    $ seed_arg
    $ Arg.(
        value & opt int 200
        & info [ "max-schedules" ] ~docv:"N"
            ~doc:"Schedule budget per scheduler family.")
    $ Arg.(
        value & opt int 2
        & info [ "harts" ] ~docv:"N" ~doc:"Number of harts to explore with.")
    $ Arg.(
        value & opt string ""
        & info [ "inject-bug" ] ~docv:"BUG"
            ~doc:
              "Arm a seeded cross-hart race: $(b,vm-epoch), $(b,msip-drop), \
               $(b,pmp-handoff), $(b,ace-stale-ownership). The explorer must \
               catch it (and plain round-robin must not) or the command \
               fails.")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "replay-schedule" ] ~docv:"PATH"
            ~doc:
              "Replay a schedule artifact (or a directory of them) and exit \
               non-zero unless each reproduces its recorded oracle verdict.")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "emit-schedule" ] ~docv:"PATH"
            ~doc:
              "With $(b,--inject-bug): write the shrunk failing schedule to \
               $(docv)."))

(* ------------------------------------------------------------------ *)
(* fleet                                                               *)
(* ------------------------------------------------------------------ *)

module Fleet = Mir_fleet.Fleet

let fleet_cmd machines domains workload seed duration_ms quiet =
  if Option.is_none (Mir_fleet.Load.find workload) then
    usage "unknown workload %S (known: %s)" workload
      (String.concat ", " Mir_fleet.Load.known_names);
  if machines < 1 then usage "--machines must be >= 1";
  if domains < 1 then usage "--domains must be >= 1";
  let spec =
    { Fleet.default_spec with Fleet.machines; domains; workload; seed;
      duration_ms }
  in
  Printf.printf "fleet: %d machines on %d domains, workload %s, seed 0x%Lx, \
                 %.2f ms simulated load each\n"
    machines domains workload seed duration_ms;
  let r = Fleet.run spec in
  (* per-machine output was buffered inside each domain; drain it here,
     in machine-id order, so the transcript is deterministic *)
  if not quiet then print_string (Fleet.drain_logs r);
  let a = Fleet.aggregate r in
  Printf.printf "aggregate: %d requests, %d traps, %d world switches, \
                 %Ld instrs%s\n"
    a.Fleet.requests a.Fleet.traps a.Fleet.world_switches a.Fleet.instrs
    (if a.Fleet.all_completed then "" else "  [SOME MACHINES HIT THE CAP]");
  Printf.printf "fleet-wide simulated trap rate: %.0f traps/s (consolidated)\n"
    a.Fleet.sim_trap_rate;
  Printf.printf "host throughput: %.0f traps/s over %.2fs wall\n"
    a.Fleet.traps_per_wall_sec r.Fleet.wall_seconds;
  Printf.printf "request latency (simulated cycles): p50=%.0f p99=%.0f \
                 p999=%.0f\n"
    a.Fleet.p50_cycles a.Fleet.p99_cycles a.Fleet.p999_cycles;
  Printf.printf "fleet digest: %016Lx\n" a.Fleet.fleet_digest;
  if not a.Fleet.all_completed then exit 1

let fleet_term =
  Term.(
    const fleet_cmd
    $ Arg.(
        value & opt int Fleet.default_spec.Fleet.machines
        & info [ "machines" ] ~docv:"N" ~doc:"Number of simulated machines.")
    $ Arg.(
        value & opt int 1
        & info [ "domains" ] ~docv:"N"
            ~doc:
              "OCaml domains to run the fleet on (work-stealing pool). \
               Results are bit-identical for every value.")
    $ Arg.(
        value
        & opt string Fleet.default_spec.Fleet.workload
        & info [ "workload" ] ~docv:"NAME"
            ~doc:
              "Load profile: $(b,mix), $(b,memcached), $(b,redis), \
               $(b,mysql) or $(b,gcc).")
    $ Arg.(
        value
        & opt int64 Fleet.default_spec.Fleet.seed
        & info [ "seed" ] ~docv:"SEED"
            ~doc:"Fleet root seed; machine $(i,i) derives its own stream.")
    $ Arg.(
        value
        & opt float Fleet.default_spec.Fleet.duration_ms
        & info [ "duration" ] ~docv:"MS"
            ~doc:"Simulated load window per machine, in milliseconds.")
    $ Arg.(
        value & flag
        & info [ "quiet" ] ~doc:"Suppress the per-machine lines."))

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

module Lint = Mir_analysis.Lint
module Lint_rules = Mir_analysis.Rules

let lint_cmd format disabled only list_rules root dirs =
  if list_rules then
    List.iter
      (fun r ->
        Printf.printf "%-18s %s\n    %s\n" r.Lint_rules.id r.Lint_rules.title
          r.Lint_rules.rationale)
      Lint_rules.all
  else begin
    let unknown =
      List.filter (fun id -> Lint_rules.by_id id = None) (disabled @ only)
    in
    if unknown <> [] then begin
      Printf.eprintf "lint: unknown rule id(s): %s\nknown: %s\n"
        (String.concat ", " unknown)
        (String.concat ", " Lint_rules.ids);
      exit 2
    end;
    let rules =
      match only with
      | [] -> Lint_rules.except disabled
      | only ->
          List.filter (fun r -> List.mem r.Lint_rules.id only) Lint_rules.all
    in
    let dirs = match dirs with [] -> Lint.default_dirs | ds -> ds in
    let report = Lint.run ~rules ~root ~dirs () in
    print_string (Lint.render ~format report);
    if format = `Text then begin
      List.iter
        (fun e ->
          Printf.eprintf
            "lint: note: unused allowlist entry %s (%s) — remove it\n"
            e.Mir_analysis.Allowlist.path e.Mir_analysis.Allowlist.rule)
        report.Lint.unused_allowlist;
      if report.Lint.diagnostics = [] then
        Printf.printf "lint: ok (%d files, %d rules)\n" report.Lint.files
          (List.length rules)
      else
        Printf.eprintf "lint: FAILED (%d diagnostics)\n"
          (List.length report.Lint.diagnostics)
    end;
    if report.Lint.diagnostics <> [] then exit 1
  end

let lint_term =
  Term.(
    const lint_cmd
    $ Arg.(
        value
        & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
        & info [ "format" ] ~docv:"FMT"
            ~doc:"Output format: $(b,text) or $(b,json).")
    $ Arg.(
        value & opt_all string []
        & info [ "disable" ] ~docv:"RULE"
            ~doc:"Disable rule $(docv) (repeatable).")
    $ Arg.(
        value & opt_all string []
        & info [ "rule" ] ~docv:"RULE"
            ~doc:"Run only rule $(docv) (repeatable).")
    $ Arg.(
        value & flag
        & info [ "list-rules" ] ~doc:"Print the rule catalog and exit.")
    $ Arg.(
        value & opt string "."
        & info [ "root" ] ~docv:"DIR" ~doc:"Repository root to scan.")
    $ Arg.(
        value & pos_all string []
        & info [] ~docv:"DIR"
            ~doc:
              "Directories to scan (default: lib bin bench examples \
               test)."))

(* ------------------------------------------------------------------ *)
(* experiments / platforms                                             *)
(* ------------------------------------------------------------------ *)

let experiments_cmd names =
  match Mir_experiments.Exp_index.(select all names) with
  | Ok runs -> List.iter (fun f -> f ()) runs
  | Error e -> usage "%s" e

let experiments_term =
  Term.(
    const experiments_cmd
    $ Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"))

let platforms_cmd () = Mir_experiments.Exp_tables.table3 ()

(* ------------------------------------------------------------------ *)
(* command tree                                                        *)
(* ------------------------------------------------------------------ *)

let cmds =
  [
    Cmd.v
      (Cmd.info "run" ~doc:"Boot a firmware natively or under Miralis")
      run_term;
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Check faithful emulation and faithful execution: the Table 2 \
            rows the symbolic prover reaches are proved over all states, \
            the others are sampled")
      verify_term;
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:
           "Coverage-guided differential fuzzing: the VFM emulator, the \
            TLB, the block engine and the ACE policy, each against its \
            oracle")
      fuzz_term;
    Cmd.v
      (Cmd.info "explore"
         ~doc:
           "Multi-hart schedule exploration: run the interleaving scenarios \
            under round-robin, random, PCT and bounded-DFS schedulers with \
            cross-hart isolation oracles checked at every switch point")
      explore_term;
    Cmd.v
      (Cmd.info "fleet"
         ~doc:
           "Run a fleet of independent simulated machines across OCaml \
            domains, fed by the seeded load generator, and report \
            fleet-wide trap throughput and request-latency percentiles")
      fleet_term;
    Cmd.v
      (Cmd.info "lint"
         ~doc:
           "Run the AST-driven invariant analyzer (lib/analysis) over the \
            source tree: the repository invariants the type system cannot \
            express, checked on the Parsetree with structured allowlists")
      lint_term;
    Cmd.v
      (Cmd.info "experiments"
         ~doc:"Regenerate the paper's tables and figures")
      experiments_term;
    Cmd.v
      (Cmd.info "platforms" ~doc:"List the platform models")
      Term.(const platforms_cmd $ const ());
  ]

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "miralis-sim" ~version:"1.0.0"
             ~doc:"A virtual firmware monitor on a simulated RISC-V machine")
          cmds))
