(* The schedule explorer: run scenarios under pluggable schedulers,
   check the cross-hart oracles at every switch point, and turn any
   violation into a shrunk, replayable schedule artifact.

   One explorer run = one scheduler + one fresh scenario instance.
   The pick function recording the schedule reduces picks modulo the
   hart count, records the switch, checks the oracles, and only then
   lets the scenario's switch action run — so a replayed schedule
   re-checks the oracles at exactly the same machine states and
   reproduces the same verdict. *)

module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Prng = Mir_util.Prng
module Setup = Mir_harness.Setup
module Config = Miralis.Config
module Schedule = Mir_trace.Schedule
module Shrink = Mir_fuzz.Shrink

exception Stop

type outcome = {
  violation : Oracle.violation option;
  steps : int;  (** global steps consumed (= pick calls) *)
  switches : (int * int) list;  (** recorded (step, hart), ascending *)
  trap_points : int;  (** switches taken right after a trap entry *)
}

let run_once (inst : Scenario.instance) ~(sched : Sched.t) ?max_steps () =
  let m = inst.Scenario.system.Setup.machine in
  let nharts = Array.length m.Machine.harts in
  let max_steps = Option.value max_steps ~default:inst.Scenario.max_steps in
  let step = ref 0 in
  let last = ref (-1) in
  let switches = ref [] in
  let trap_points = ref 0 in
  let violation = ref None in
  let pick m =
    let h0 = sched.Sched.pick m ~step:!step ~last:!last in
    let h = ((h0 mod nharts) + nharts) mod nharts in
    if h <> !last then begin
      if !last >= 0 && m.Machine.harts.(!last).Hart.just_trapped then
        incr trap_points;
      switches := (!step, h) :: !switches;
      (if !last >= 0 then
         match Oracle.first_violation inst.Scenario.oracles with
         | Some v ->
             violation := Some v;
             raise Stop
         | None -> ());
      if !last >= 0 then inst.Scenario.on_switch ~step:!step
    end;
    incr step;
    last := h;
    h
  in
  (try Machine.run_scheduled m ~max_steps ~pick with Stop -> ());
  {
    violation = !violation;
    steps = !step;
    switches = List.rev !switches;
    trap_points = !trap_points;
  }

(* ------------------------------------------------------------------ *)
(* Bug names (CLI surface)                                             *)
(* ------------------------------------------------------------------ *)

let bug_name = function
  | Machine.Delayed_vm_epoch -> "vm-epoch"
  | Machine.Dropped_msip -> "msip-drop"
  | Machine.Pmp_handoff_window -> "pmp-handoff"
  | Machine.Ace_stale_ownership -> "ace-stale-ownership"

let bug_of_name = function
  | "vm-epoch" -> Ok (Some Machine.Delayed_vm_epoch)
  | "msip-drop" -> Ok (Some Machine.Dropped_msip)
  | "pmp-handoff" -> Ok (Some Machine.Pmp_handoff_window)
  | "ace-stale-ownership" -> Ok (Some Machine.Ace_stale_ownership)
  | "none" -> Ok None
  | s -> Error (Printf.sprintf "unknown bug %S" s)

(* The scenario whose workload exercises the given bug's window. *)
let scenario_for_bug bug =
  let name =
    match bug with
    | Machine.Delayed_vm_epoch -> "sfence"
    | Machine.Dropped_msip -> "ipi"
    | Machine.Pmp_handoff_window -> "keystone"
    | Machine.Ace_stale_ownership -> "ace"
  in
  Option.get (Scenario.find name)

let build (scn : Scenario.t) ?bug ~nharts ~seed () =
  let inst = scn.Scenario.build ~nharts ~seed in
  inst.Scenario.system.Setup.machine.Machine.race_bug <- bug;
  inst

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

type family = Rr | Random | Pct | Dfs

let family_name = function
  | Rr -> "round-robin"
  | Random -> "random"
  | Pct -> "pct"
  | Dfs -> "dfs"

let family_of_name = function
  | "round-robin" | "rr" -> Ok Rr
  | "random" -> Ok Random
  | "pct" -> Ok Pct
  | "dfs" -> Ok Dfs
  | s -> Error (Printf.sprintf "unknown scheduler family %S" s)

type campaign = {
  family : family;
  schedules_run : int;
  steps_total : int;
  caught : (Oracle.violation * Schedule.t) option;
      (** first violation, with its (unshrunk) schedule *)
}

(* Replay budget slack: a violation found at step [s] needs [s+1] pick
   calls to reach; pad a little so shrunk variants that shift the
   violating switch slightly later still fit. *)
let budget_pad = 8

let run_family (scn : Scenario.t) ?bug ~family ~seed ~max_schedules ~nharts ()
    =
  let schedules_run = ref 0 in
  let steps_total = ref 0 in
  let caught = ref None in
  let record o =
    incr schedules_run;
    steps_total := !steps_total + o.steps;
    match o.violation with
    | Some v when !caught = None ->
        caught :=
          Some
            ( v,
              {
                Schedule.scenario = scn.Scenario.name;
                bug = Option.map bug_name bug;
                seed;
                nharts;
                steps = o.steps + budget_pad;
                oracle = v.Oracle.oracle;
                switches = o.switches;
              } )
    | _ -> ()
  in
  let run_sched ?max_steps sched =
    let inst = build scn ?bug ~nharts ~seed () in
    record (run_once inst ~sched ?max_steps ())
  in
  let derived kind i =
    Config.derive seed
      (Printf.sprintf "explore:%s:%s:%d" scn.Scenario.name kind i)
  in
  (match family with
  | Rr -> run_sched (Sched.round_robin ~nharts ())
  | Random ->
      let i = ref 0 in
      while !caught = None && !i < max_schedules do
        run_sched (Sched.random ~prng:(derived "random" !i) ~nharts ());
        incr i
      done
  | Pct ->
      let i = ref 0 in
      while !caught = None && !i < max_schedules do
        let depth = 1 + (!i mod 3) in
        run_sched (Sched.pct ~depth ~prng:(derived "pct" !i) ~nharts ());
        incr i
      done
  | Dfs ->
      let horizon = 512 in
      Seq.iter
        (fun switches ->
          if !caught = None then
            run_sched ~max_steps:horizon (Sched.of_switches switches))
        (Seq.take max_schedules
           (Sched.dfs_schedules ~nharts ~horizon ~grid:64 ~max_switches:3)));
  {
    family;
    schedules_run = !schedules_run;
    steps_total = !steps_total;
    caught = !caught;
  }

(* ------------------------------------------------------------------ *)
(* Replay and shrinking                                                *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* Replay a schedule on a fresh instance of its scenario. *)
let replay (sch : Schedule.t) =
  match Scenario.find sch.Schedule.scenario with
  | None -> Error (Printf.sprintf "unknown scenario %S" sch.Schedule.scenario)
  | Some scn ->
      let* bug =
        match sch.Schedule.bug with
        | None -> Ok None
        | Some n -> bug_of_name n
      in
      let inst =
        build scn ?bug ~nharts:sch.Schedule.nharts ~seed:sch.Schedule.seed ()
      in
      Ok
        (run_once inst
           ~sched:(Sched.of_switches sch.Schedule.switches)
           ~max_steps:sch.Schedule.steps ())

(* Does the replayed outcome reproduce the schedule's verdict? *)
let reproduces (sch : Schedule.t) (o : outcome) =
  match o.violation with
  | Some v -> v.Oracle.oracle = sch.Schedule.oracle
  | None -> sch.Schedule.oracle = ""

(* Search for a minimal-preemption reproducer: re-run the scenario
   under the trap-biased random walk with a hard preemption bound
   (2..7 switches, long base slices), deterministically seeded from
   the schedule. Dense random schedules rarely ddmin well — removing a
   switch shifts every later hart-local phase, so almost no strict
   subset still lines up the racing window — but the same violation is
   almost always reachable with a handful of trap-adjacent
   preemptions, which this search finds directly. *)
let search_minimal (sch : Schedule.t) ~attempts =
  match
    (Scenario.find sch.Schedule.scenario, bug_of_name
       (Option.value sch.Schedule.bug ~default:"none"))
  with
  | None, _ | _, Error _ -> None
  | Some scn, Ok bug ->
      let nharts = sch.Schedule.nharts in
      let seed = sch.Schedule.seed in
      let found = ref None in
      let j = ref 0 in
      while !found = None && !j < attempts do
        let k = 2 + (!j / 2 mod 6) in
        let prng =
          Config.derive seed
            (Printf.sprintf "explore:minimize:%s:%d" scn.Scenario.name !j)
        in
        let inst = build scn ?bug ~nharts ~seed () in
        let sched =
          if !j mod 2 = 0 then
            (* trap-biased walk with a hard preemption bound and a
               randomized start, so the budget is spent around one
               region of the run: finds windows that open right after
               a trap the walk is likely to be sitting on (IPI kicks,
               fence edits) *)
            let start_step =
              Prng.int_below prng (inst.Scenario.max_steps / 2)
            in
            Sched.random ~avg_slice:256 ~max_switches:k ~start_step ~prng
              ~nharts ()
          else begin
            (* uniformly placed absolute switch points: finds windows
               pinned to workload progress (e.g. enclave lifecycle
               calls deep into the run) that a bounded walk spends its
               budget before reaching *)
            let points =
              List.init k (fun _ ->
                  1 + Prng.int_below prng (inst.Scenario.max_steps - 1))
              |> List.sort_uniq compare
            in
            let h0 = Prng.int_below prng nharts in
            let switches =
              List.mapi
                (fun i at ->
                  (at, (h0 + (i + 1) * max 1 (nharts - 1)) mod nharts))
                points
            in
            Sched.of_switches ((0, h0) :: switches)
          end
        in
        let o = run_once inst ~sched () in
        (match o.violation with
        | Some v when v.Oracle.oracle = sch.Schedule.oracle ->
            found :=
              Some
                {
                  sch with
                  Schedule.switches = o.switches;
                  steps = o.steps + budget_pad;
                }
        | _ -> ());
        incr j
      done;
      !found

(* Schedule-point delta-debugging: ddmin over the switch tail (the
   initial pick is pinned), validating every candidate by full replay
   on a fresh instance. The shrunk schedule is re-validated and its
   step budget tightened to the reproducing run. *)
let ddmin_tail (sch : Schedule.t) =
  match sch.Schedule.switches with
  | [] -> sch
  | head :: tail ->
      let try_switches switches =
        let candidate =
          (* generous budget: dropping switches can move the violation *)
          { sch with Schedule.switches; steps = max sch.Schedule.steps 20_000 }
        in
        match replay candidate with
        | Ok o when reproduces candidate o -> Some o
        | _ -> None
      in
      let still_fails tail' = try_switches (head :: tail') <> None in
      let tail' = Shrink.ddmin ~still_fails tail in
      let switches = head :: tail' in
      let steps =
        match try_switches switches with
        | Some o -> o.steps + budget_pad
        | None -> sch.Schedule.steps
      in
      { sch with Schedule.switches; steps }

(* Full shrink: minimal-preemption search first, then the ddmin tail
   pass to drop any switch the search kept but the repro does not
   need. *)
let shrink ?(attempts = 300) (sch : Schedule.t) =
  let small = Option.value (search_minimal sch ~attempts) ~default:sch in
  ddmin_tail small
