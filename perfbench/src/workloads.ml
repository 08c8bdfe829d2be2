(* The four benchmark workloads. Each drives only the public APIs of
   Setup, Machine, Monitor, Explore and the fuzzers, and every op is a
   pure function of (seed, op index) — on the long-lived systems, of
   the seed and the ops before it. *)

module Machine = Mir_rv.Machine
module Setup = Mir_harness.Setup
module Script = Mir_kernel.Script
module Paging = Mir_kernel.Paging
module Platform = Mir_platform.Platform
module Prng = Mir_util.Prng
module Config = Miralis.Config
module Monitor = Miralis.Monitor
module Explore = Mir_explore.Explore
module Scenario = Mir_explore.Scenario
module Sched = Mir_explore.Sched

type op = {
  steps : int;  (** simulated machine steps retired *)
  cycles : int;  (** simulated cycles, summed over harts *)
  failure : string option;
}

(* Spans around construction and machine runs, with their allocation;
   without a recorder these are plain calls. *)
type tracing = {
  tr : Spans.t option;
  mutable build_bytes : float;  (** allocated by constructions *)
  mutable machine_words : float;  (** minor words allocated in machine spans *)
}

type instance = {
  run_op : int -> op;
  digest : unit -> int64;
      (** digest of everything the instance has computed so far *)
  counts : unit -> Layers.counts;  (** per-layer counts so far *)
  tracing : tracing;
}

type t = {
  name : string;
  long_lived : bool;
      (** one system for the whole run, checked against an
          interpreter-only replay *)
  trace_ops : int;
      (** ops per traced run per 10 s of --seconds: about half a second
          of untraced and half a second of traced ops per second *)
  setup : ?tr:Spans.t -> interp:bool -> smoke:bool -> seed:int64 -> unit -> instance;
      (** build and warm up; [interp] turns the block engine off *)
}

let fnv_prime = 0x100000001B3L
let mix h v = Int64.mul (Int64.logxor h v) fnv_prime
let mix_ints h l = List.fold_left (fun h v -> mix h (Int64.of_int v)) h l

let tracing tr = { tr; build_bytes = 0.; machine_words = 0. }

let traced_build t f =
  match t.tr with
  | None -> f ()
  | Some tr ->
      let b0 = Gc.allocated_bytes () in
      let v = Spans.span tr (Spans.id tr "build") f in
      t.build_bytes <- t.build_bytes +. (Gc.allocated_bytes () -. b0);
      v

let traced_machine t f =
  match t.tr with
  | None -> f ()
  | Some tr ->
      let w0 = Gc.minor_words () in
      let v = Spans.span tr (Spans.id tr "machine") f in
      t.machine_words <- t.machine_words +. (Gc.minor_words () -. w0);
      v

(* ------------------------------------------------------------------ *)
(* Long-lived systems: guest-sv39 and trap-storm                       *)
(* ------------------------------------------------------------------ *)

(* The seed picks data, never shape: each hart's console byte and the
   contents of its misaligned-access scratch buffer. Ops stay identical
   across seeds, so step and cycle counts (and sim_cpi) do too. *)
type seeded = { chars : char array; scratch : int64 array }

let seeded ~name ~nharts ~seed =
  let prng = Config.derive seed ("perfbench:" ^ name) in
  let chars = Array.init nharts (fun _ -> Char.chr (33 + Prng.int_below prng 94)) in
  let scratch = Array.init (2 * nharts) (fun _ -> Prng.next prng) in
  { chars; scratch }

let vf2 ~nharts =
  let p = Platform.visionfive2 in
  { p with Platform.machine = { p.Platform.machine with Machine.nharts } }

type shape = {
  nharts : int;
  slice : int;  (** steps per op (a round may overshoot it by a few) *)
  warmup : int;  (** steps of set-up after boot, filling the caches *)
  scripts : seeded -> Machine.t -> Script.op list list;
}

let long_lived ~name ~(full : shape) ~(smoke : shape) =
  let setup ?tr ~interp ~smoke:small ~seed () =
    let shape = if small then smoke else full in
    let t = tracing tr in
    let sys =
      traced_build t (fun () ->
          Setup.create (vf2 ~nharts:shape.nharts) Setup.Virtualized)
    in
    let m = sys.Setup.machine in
    let mir = Option.get sys.Setup.miralis in
    if interp then Machine.set_block_engine m false;
    let inputs = seeded ~name ~nharts:shape.nharts ~seed in
    List.iteri (fun h s -> Script.write m ~hart:h s) (shape.scripts inputs m);
    Array.iteri
      (fun i v ->
        let base = Script.region_base ~hart:(i / 2) in
        let at = Int64.add base (Int64.add Script.counter_scratch (Int64.of_int (8 * (i mod 2)))) in
        ignore (Machine.phys_store m at 8 v))
      inputs.scratch;
    Option.iter (fun tr -> Layers.instrument tr mir) tr;
    let run budget =
      let s0 = m.Machine.instr_count and c0 = Layers.cycles m in
      traced_machine t (fun () -> Machine.run ~max_instrs:(Int64.of_int budget) m);
      let steps = m.Machine.instr_count - s0 in
      let failure =
        if m.Machine.poweroff || Machine.all_halted m then
          Some "machine stopped before the slice ended"
        else if steps < budget then
          Some (Printf.sprintf "retired %d steps, slice is %d" steps budget)
        else Option.map (fun v -> "policy violation: " ^ v) mir.Monitor.violation
      in
      { steps; cycles = Layers.cycles m - c0; failure }
    in
    Option.iter (fun f -> failwith ("warm-up: " ^ f)) (run shape.warmup).failure;
    let digest () =
      mix_ints (Setup.state_hash sys) [ m.Machine.instr_count; Layers.cycles m ]
    in
    let counts () =
      let c = Hashtbl.create 32 in
      Layers.add_counts c (Layers.machine_counters m);
      Layers.add_counts c (Layers.vfm_counters mir.Monitor.stats);
      c
    in
    { run_op = (fun _ -> run shape.slice); digest; counts; tracing = t }
  in
  { name; long_lived = true; trace_ops = 100; setup }

(* bench ips's Linux-boot-shaped Sv39 loop: native compute between
   rare M-mode traps, satp rewritten once per iteration. *)
let sv39_script (s : seeded) m =
  Script.
    [
      [
        Enable_paging (Paging.identity_satp m);
        Compute 3000L;
        Rdtime;
        Set_timer 400L;
        Misaligned_load;
        Compute 3000L;
        Misaligned_store;
        Tick_wfi 150L;
        Putchar s.chars.(0);
        Loop 1_000_000_000L;
        End;
      ];
    ]

let guest_sv39 =
  long_lived ~name:"guest-sv39"
    ~full:{ nharts = 1; slice = 1_048_576; warmup = 2_097_152; scripts = sv39_script }
    ~smoke:{ nharts = 1; slice = 16_384; warmup = 65_536; scripts = sv39_script }

(* Boot_trace's kernel-init burst with the compute cut short: three
   time reads, a set-timer, an IPI and a misaligned load/store per
   burst, and a legacy console write (a forced world switch) every
   eighth burst on hart 0. There is no remote fence: each one flushes
   the whole icache, a sweep over the 16 MiB machine that would take
   most of the op and hide the monitor's dispatch. *)
let storm_script (s : seeded) _m =
  let burst hart i =
    Script.[ Rdtime; Rdtime; Rdtime; Compute 40L; Set_timer 1500L ]
    @ [ (if hart = 0 then Script.Ipi_all else Script.Ipi_self) ]
    @ (if hart = 0 && i mod 8 = 0 then [ Script.Putchar s.chars.(hart) ] else [])
    @ Script.[ Misaligned_load; Misaligned_store; Compute 40L ]
  in
  List.init 2 (fun hart ->
      List.concat (List.init 8 (burst hart)) @ Script.[ Loop 1_000_000_000L; End ])

let trap_storm =
  long_lived ~name:"trap-storm"
    ~full:{ nharts = 2; slice = 524_288; warmup = 1_048_576; scripts = storm_script }
    ~smoke:{ nharts = 2; slice = 2_048; warmup = 4_096; scripts = storm_script }

(* ------------------------------------------------------------------ *)
(* explore-sched: one cold 2-hart scenario build + one schedule per op *)
(* ------------------------------------------------------------------ *)

(* Schedule [j] (the four warm-up schedules, then the timed ops) runs
   scenario [j mod 4]; rotations alternate random and PCT schedulers.
   The latest instance stays live until the next build, as a caller
   inspecting its last schedule would keep it, so the heap at the end
   of set-up holds one built scenario. *)
let warmups = 4
let scenario_of j = List.nth Scenario.all (j mod 4)
let sched_prng ~seed j = Config.derive seed (Printf.sprintf "perfbench:explore:%d" j)

let explore_sched =
  let setup ?tr ~interp:_ ~smoke:_ ~seed () =
    let t = tracing tr in
    let counts = Hashtbl.create 32 in
    let digest = ref 0xCBF29CE484222325L in
    let latest = ref None in
    let run_at j =
      let scn = scenario_of j in
      latest := None;
      let inst =
        traced_build t (fun () -> Explore.build scn ~nharts:2 ~seed ())
      in
      latest := Some inst;
      let inst =
        match tr with
        | None -> inst
        | Some tr ->
            Layers.instrument tr inst.Scenario.mir;
            Layers.wrap_oracles tr inst
      in
      let prng = sched_prng ~seed j in
      let sched =
        if j / 4 mod 2 = 0 then Sched.random ~prng ~nharts:2 ()
        else Sched.pct ~depth:(1 + (j mod 3)) ~prng ~nharts:2 ()
      in
      let o = traced_machine t (fun () -> Explore.run_once inst ~sched ()) in
      let m = inst.Scenario.system.Setup.machine in
      let mir = inst.Scenario.mir in
      let nswitches = List.length o.Explore.switches in
      Layers.add_counts counts (Layers.machine_counters m);
      Layers.add_counts counts (Layers.vfm_counters mir.Miralis.Monitor.stats);
      Layers.add_counts counts
        [
          ("explore.switches", nswitches);
          ("explore.violations", Bool.to_int (o.Explore.violation <> None));
          ("sched.picks", o.Explore.steps);
        ];
      let cycles = Layers.cycles m in
      digest :=
        List.fold_left
          (fun h (step, hart) -> mix_ints h [ step; hart ])
          (mix_ints !digest
             [ o.Explore.steps; nswitches; o.Explore.trap_points; m.Machine.instr_count; cycles ])
          o.Explore.switches;
      let failure =
        match (o.Explore.violation, mir.Monitor.violation) with
        | Some v, _ -> Some ("oracle violation: " ^ v.Mir_explore.Oracle.oracle)
        | None, Some v -> Some ("policy violation: " ^ v)
        | None, None -> None
      in
      { steps = m.Machine.instr_count; cycles; failure }
    in
    for j = 0 to warmups - 1 do
      Option.iter (fun f -> failwith ("warm-up: " ^ f)) (run_at j).failure
    done;
    {
      run_op = (fun i -> run_at (warmups + i));
      digest = (fun () -> !digest);
      counts = (fun () -> counts);
      tracing = t;
    }
  in
  { name = "explore-sched"; long_lived = false; trace_ops = 56; setup }

(* ------------------------------------------------------------------ *)
(* difftest: one fixed-size campaign of each fuzzer family             *)
(* ------------------------------------------------------------------ *)

let families = [ "isa"; "paging"; "blocks"; "ace" ]

(* Campaign [j] (one warm-up, then the timed ops) seeds each family
   from the seed, [j] and the family name. *)
let family_seed ~seed j fam =
  Prng.next (Config.derive seed (Printf.sprintf "perfbench:difftest:%d:%s" j fam))

(* (execs, edges, diverged) of one campaign *)
let campaign fam ~seed ~execs =
  match fam with
  | "isa" ->
      let r = Mir_fuzz.Fuzzer.run ~seed ~max_execs:execs () in
      ( r.Mir_fuzz.Fuzzer.execs,
        Mir_fuzz.Coverage.edges r.Mir_fuzz.Fuzzer.coverage,
        r.Mir_fuzz.Fuzzer.divergence <> None )
  | "paging" ->
      let r = Mir_fuzz.Pgfuzz.run ~seed ~max_execs:execs () in
      (r.Mir_fuzz.Pgfuzz.execs, r.Mir_fuzz.Pgfuzz.edges, r.Mir_fuzz.Pgfuzz.divergence <> None)
  | "blocks" ->
      let r = Mir_fuzz.Blockfuzz.run ~seed ~max_execs:execs () in
      ( r.Mir_fuzz.Blockfuzz.execs,
        r.Mir_fuzz.Blockfuzz.edges,
        r.Mir_fuzz.Blockfuzz.divergence <> None )
  | "ace" ->
      let r = Mir_fuzz.Acefuzz.run ~seed ~max_execs:execs () in
      (r.Mir_fuzz.Acefuzz.execs, r.Mir_fuzz.Acefuzz.edges, r.Mir_fuzz.Acefuzz.divergence <> None)
  | f -> invalid_arg ("unknown fuzzer family " ^ f)

let difftest =
  let setup ?tr ~interp:_ ~smoke ~seed () =
    (* The campaigns scripts/ci.sh runs (2,000 / 10,000 / 10,000 / 100
       execs) divided by 100, the smallest division that keeps ACE's
       one exec whole. *)
    let execs =
      if smoke then [ ("isa", 10); ("paging", 3); ("blocks", 3); ("ace", 1) ]
      else [ ("isa", 20); ("paging", 100); ("blocks", 100); ("ace", 1) ]
    in
    let t = tracing tr in
    let counts = Hashtbl.create 32 in
    let digest = ref 0xCBF29CE484222325L in
    let run_at j =
      let diverged =
        List.filter
          (fun (fam, n) ->
            let fseed = family_seed ~seed j fam in
            let run () = campaign fam ~seed:fseed ~execs:n in
            let execs, edges, div =
              match tr with
              | None -> run ()
              | Some tr -> Spans.span tr (Spans.id tr ("fuzz." ^ fam)) run
            in
            Layers.add_counts counts
              [
                ("fuzz." ^ fam ^ ".execs", execs);
                ("fuzz." ^ fam ^ ".edges", edges);
                ("fuzz." ^ fam ^ ".divergences", Bool.to_int div);
              ];
            digest := mix_ints (mix !digest fseed) [ execs; edges; Bool.to_int div ];
            div)
          execs
      in
      let failure =
        match diverged with
        | [] -> None
        | l -> Some ("divergence in " ^ String.concat ", " (List.map fst l))
      in
      { steps = 0; cycles = 0; failure }
    in
    Option.iter (fun f -> failwith ("warm-up: " ^ f)) (run_at 0).failure;
    {
      run_op = (fun i -> run_at (1 + i));
      digest = (fun () -> !digest);
      counts = (fun () -> counts);
      tracing = t;
    }
  in
  { name = "difftest"; long_lived = false; trace_ops = 28; setup }

let all = [ guest_sv39; trap_storm; explore_sched; difftest ]
let find name = List.find_opt (fun w -> w.name = name) all
