(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md for the experiment index), plus a
   Bechamel microbenchmark section for the simulator's own hot
   primitives.

   Usage:
     bench/main.exe               run everything
     bench/main.exe <name>...     run selected experiments
   Names: table1 table2 table3 table4 table5 fig3 fig10 fig11 fig12
          fig13 fig14 boottime sstc q1 q4 trace sym ips explore ace
          fleet lint micro *)

module T = Mir_experiments.Exp_tables
module F = Mir_experiments.Exp_figs

let experiments =
  [
    ("table1", fun () -> T.table1 ());
    ("table2", fun () -> T.table2 ());
    ("table3", fun () -> T.table3 ());
    ("table4", fun () -> T.table4 ());
    ("table5", fun () -> T.table5 ());
    ("fig3", fun () -> F.fig3 ());
    ("fig10", fun () -> F.fig10 ());
    ("fig11", fun () -> F.fig11 ());
    ("fig12", fun () -> F.fig12 ());
    ("fig13", fun () -> F.fig13 ());
    ("fig14", fun () -> F.fig14 ());
    ("boottime", fun () -> F.boot_time ());
    ("sstc", fun () -> F.sstc_projection ());
    ("q1", fun () -> F.q1 ());
    ("q4", fun () -> F.q4 ());
  ]

(* ------------------------------------------------------------------ *)
(* Recording / replay overhead (BENCH_trace.json)                      *)
(* ------------------------------------------------------------------ *)

let trace_bench () =
  print_endline "\nTrace recording / replay overhead";
  print_endline "=================================";
  let module Setup = Mir_harness.Setup in
  let module Script = Mir_kernel.Script in
  (* trap-heavy workload: every iteration takes timer + IPI + rfence +
     misaligned traps through the monitor, with compute in between *)
  let script =
    Script.
      [
        Rdtime; Set_timer 500L; Ipi_self; Rfence; Misaligned_load;
        Misaligned_store; Compute 2000L; Tick_wfi 200L; Loop 60L; End;
      ]
  in
  let fresh () =
    Setup.create Mir_platform.Platform.visionfive2 Setup.Virtualized
  in
  let timed sys =
    let t0 = Unix.gettimeofday () in
    Setup.run_scripts sys [ script ];
    let dt = Unix.gettimeofday () -. t0 in
    let instrs = float_of_int sys.Setup.machine.Mir_rv.Machine.instr_count in
    instrs /. dt
  in
  let ips_off = timed (fresh ()) in
  let sys_rec = fresh () in
  let recorder, _ = Setup.attach_recorder sys_rec in
  let mgr =
    Setup.checkpoint_manager sys_rec ~every:100_000L
      ~events_seen:(fun () -> Mir_trace.Recorder.count recorder)
  in
  let ips_on = timed sys_rec in
  let events = Mir_trace.Recorder.events recorder in
  let nevents = List.length events in
  let ncheckpoints = List.length (Mir_trace.Snapshot.checkpoints mgr) in
  let sys_rep = fresh () in
  let replay, _ = Setup.attach_replay sys_rep ~events in
  let ips_replay = timed sys_rep in
  let diverged =
    match Mir_trace.Replay.finish replay with
    | Mir_trace.Replay.Match _ -> false
    | _ -> true
  in
  let overhead = ips_off /. ips_on in
  Printf.printf "  recording off      %10.0f instrs/sec\n" ips_off;
  Printf.printf "  recording on       %10.0f instrs/sec  (%.2fx overhead)\n"
    ips_on overhead;
  Printf.printf "  replay (verifying) %10.0f instrs/sec\n" ips_replay;
  Printf.printf "  events=%d checkpoints=%d divergence=%b\n" nevents
    ncheckpoints diverged;
  let oc = open_out "BENCH_trace.json" in
  Printf.fprintf oc
    "{\n  \"ips_off\": %.0f,\n  \"ips_recording\": %.0f,\n  \
     \"ips_replay\": %.0f,\n  \"recording_overhead\": %.3f,\n  \
     \"events\": %d,\n  \"checkpoints\": %d,\n  \"diverged\": %b\n}\n"
    ips_off ips_on ips_replay overhead nevents ncheckpoints diverged;
  close_out oc;
  print_endline "  wrote BENCH_trace.json"

(* ------------------------------------------------------------------ *)
(* Memory-system fast path: instrs/sec with paging on (BENCH_ips.json) *)
(* ------------------------------------------------------------------ *)

(* A Linux-boot-shaped virtualized workload: Sv39 on, then a loop of
   native compute, timer programming, misaligned accesses (firmware
   MPRV emulation through the page tables), wfi ticks and console
   MMIO.  The Loop opcode re-enters the script from the top, so satp
   is rewritten once per iteration — a context-switch-shaped TLB flush
   rate rather than an unrealistically static address space.  Run once
   with the TLB disabled (every access takes the full Sv39 walk) and
   once with the default TLB; the ratio is the fast-path speedup. *)
let ips_bench () =
  print_endline "\nMemory-system fast path (S-mode paging on)";
  print_endline "==========================================";
  let module Setup = Mir_harness.Setup in
  let module Script = Mir_kernel.Script in
  let budget =
    match Sys.getenv_opt "MIRALIS_IPS_BUDGET" with
    | Some s -> Int64.of_string s
    | None -> 4_000_000L
  in
  let platform tlb_entries block_engine =
    let p = Mir_platform.Platform.visionfive2 in
    {
      p with
      Mir_platform.Platform.machine =
        { p.Mir_platform.Platform.machine with
          Mir_rv.Machine.tlb_entries; nharts = 1; block_engine };
    }
  in
  let script sys =
    Script.
      [
        Enable_paging (Mir_kernel.Paging.identity_satp sys.Setup.machine);
        Compute 3000L;
        Rdtime;
        Set_timer 400L;
        Misaligned_load;
        Compute 3000L;
        Misaligned_store;
        Tick_wfi 150L;
        Putchar '.';
        Loop 1_000_000_000L;
        End;
      ]
  in
  let measure tlb_entries block_engine =
    let sys =
      Setup.create (platform tlb_entries block_engine) Setup.Virtualized
    in
    let t0 = Unix.gettimeofday () in
    Setup.run_scripts ~max_instrs:budget sys [ script sys ];
    let dt = Unix.gettimeofday () -. t0 in
    let instrs = sys.Setup.machine.Mir_rv.Machine.instr_count in
    (float_of_int instrs /. dt, sys)
  in
  let default_tlb =
    Mir_rv.Machine.default_config.Mir_rv.Machine.tlb_entries
  in
  let ips_walker, _ = measure 0 false in
  let ips_tlb, sys = measure default_tlb false in
  let ips_blocks, bsys = measure default_tlb true in
  let hits, misses, flushes = Mir_rv.Machine.tlb_totals sys.Setup.machine in
  let bstats = Mir_rv.Machine.block_stats bsys.Setup.machine in
  let bhit = Mir_rv.Machine.block_hit_rate bsys.Setup.machine in
  let speedup = ips_tlb /. ips_walker in
  let speedup_blocks = ips_blocks /. ips_tlb in
  let hit_rate =
    if hits + misses = 0 then 0.
    else float_of_int hits /. float_of_int (hits + misses)
  in
  Printf.printf "  walker only (tlb=0) %10.0f instrs/sec\n" ips_walker;
  Printf.printf "  software TLB        %10.0f instrs/sec  (%.2fx)\n" ips_tlb
    speedup;
  Printf.printf "  decoded blocks      %10.0f instrs/sec  (%.2fx vs tlb)\n"
    ips_blocks speedup_blocks;
  Printf.printf "  tlb: %d hits / %d misses (%.1f%% hit rate), %d flushes\n"
    hits misses (100. *. hit_rate) flushes;
  Printf.printf
    "  blocks: %d compiled, %d invalidated, %d dispatches, %.2f%% hit rate\n"
    bstats.Mir_rv.Block.compiled bstats.Mir_rv.Block.invalidated
    bstats.Mir_rv.Block.dispatches (100. *. bhit);
  let oc = open_out "BENCH_ips.json" in
  Printf.fprintf oc
    "{\n  \"budget_instrs\": %Ld,\n  \"ips_walker\": %.0f,\n  \
     \"ips_tlb\": %.0f,\n  \"speedup\": %.3f,\n  \"tlb_hits\": %d,\n  \
     \"tlb_misses\": %d,\n  \"tlb_hit_rate\": %.4f,\n  \
     \"tlb_flushes\": %d,\n  \"ips_blocks\": %.0f,\n  \
     \"speedup_blocks\": %.3f,\n  \"block_hit_rate\": %.4f,\n  \
     \"blocks_compiled\": %d,\n  \"block_invalidations\": %d,\n  \
     \"block_dispatches\": %d,\n  \"block_interp_instrs\": %d\n}\n"
    budget ips_walker ips_tlb speedup hits misses hit_rate flushes ips_blocks
    speedup_blocks bhit bstats.Mir_rv.Block.compiled
    bstats.Mir_rv.Block.invalidated bstats.Mir_rv.Block.dispatches
    bstats.Mir_rv.Block.interp_instrs;
  close_out oc;
  print_endline "  wrote BENCH_ips.json"

(* ------------------------------------------------------------------ *)
(* Schedule-exploration throughput (BENCH_explore.json)                *)
(* ------------------------------------------------------------------ *)

let explore_bench () =
  print_endline "\nSchedule-exploration throughput";
  print_endline "===============================";
  let module Explore = Mir_explore.Explore in
  let module Scenario = Mir_explore.Scenario in
  let seed = Miralis.Config.default_seed in
  let budget = 40 in
  let schedules = ref 0 in
  let steps = ref 0 in
  let traps = ref 0 in
  let counts = ref [] in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun scn ->
      List.iter
        (fun family ->
          let c =
            Explore.run_family scn ~family ~seed ~max_schedules:budget
              ~nharts:2 ()
          in
          schedules := !schedules + c.Explore.schedules_run;
          steps := !steps + c.Explore.steps_total;
          traps := !traps + c.Explore.trap_points_total;
          counts := c.Explore.switch_counts @ !counts)
        [ Explore.Random; Explore.Pct ])
    Scenario.all;
  let dt = Unix.gettimeofday () -. t0 in
  let sched_rate = float_of_int !schedules /. dt in
  let step_rate = float_of_int !steps /. dt in
  (* histogram of preemption points per schedule, bucket width 64 *)
  let bucket_w = 64 in
  let hist = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let b = (max 0 (n - 1)) / bucket_w * bucket_w in
      Hashtbl.replace hist b (1 + Option.value (Hashtbl.find_opt hist b) ~default:0))
    !counts;
  let buckets =
    Hashtbl.fold (fun b n acc -> (b, n) :: acc) hist []
    |> List.sort compare
  in
  Printf.printf "  %d schedules, %d steps in %.2fs: %.0f schedules/sec, %.0f steps/sec\n"
    !schedules !steps dt sched_rate step_rate;
  Printf.printf "  trap-adjacent preemptions: %d\n" !traps;
  List.iter
    (fun (b, n) ->
      Printf.printf "  preemption points %4d-%4d: %d schedules\n" b
        (b + bucket_w - 1) n)
    buckets;
  let oc = open_out "BENCH_explore.json" in
  Printf.fprintf oc
    "{\n  \"schedules\": %d,\n  \"steps\": %d,\n  \"seconds\": %.3f,\n  \
     \"schedules_per_sec\": %.0f,\n  \"steps_per_sec\": %.0f,\n  \
     \"trap_adjacent_preemptions\": %d,\n  \"preemption_hist\": [%s]\n}\n"
    !schedules !steps dt sched_rate step_rate !traps
    (String.concat ", "
       (List.map (fun (b, n) -> Printf.sprintf "[%d, %d]" b n) buckets));
  close_out oc;
  print_endline "  wrote BENCH_explore.json"

(* ------------------------------------------------------------------ *)
(* ACE steal/return world-switch cost (BENCH_ace.json)                 *)
(* ------------------------------------------------------------------ *)

(* One comparison row per policy: guest cycles for a full round under
   the sandbox (a plain SBI world switch), Keystone (enclave
   create/run/destroy) and ACE (CVM promote/steal/run/return/destroy).
   The ACE row is the paper-style world-switch cost line: a steal or
   return is a heavy context switch (full host save, vcpu install, PMP
   swap, TLB flush), and the cost model charges it accordingly. *)
let ace_bench () =
  print_endline "\nACE confidential-VM steal/return cost";
  print_endline "=====================================";
  let module Setup = Mir_harness.Setup in
  let module Script = Mir_kernel.Script in
  let module Machine = Mir_rv.Machine in
  let module Platform = Mir_platform.Platform in
  let module Uapp = Mir_kernel.Uapp in
  let module Keystone = Mir_policies.Policy_keystone in
  let module Ace = Mir_policies.Policy_ace in
  let module Sandbox = Mir_policies.Policy_sandbox in
  let p0 = Platform.visionfive2 in
  let mc = { p0.Platform.machine with Machine.nharts = 1 } in
  let p = { p0 with Platform.machine = mc } in
  let region_base = 0x8088_0000L and region_size = 4096L in
  let n = 40 in
  let build ~policy ~pmp_slots =
    let m = Machine.create mc in
    Machine.load_program m Mir_firmware.Layout.fw_base
      (fst
         (Mir_firmware.Minisbi.image ~nharts:1
            ~kernel_entry:Mir_kernel.Interp_kernel.entry));
    Machine.load_program m Mir_kernel.Interp_kernel.entry
      (fst (Mir_kernel.Interp_kernel.image ()));
    let config =
      Miralis.Config.make ~policy_pmp_slots:pmp_slots
        ~cost:p.Platform.cost ~machine:mc ()
    in
    let mir = Miralis.Monitor.create ~policy config m in
    Miralis.Monitor.boot mir ~fw_entry:Mir_firmware.Layout.fw_base;
    ( {
        Setup.platform = p;
        mode = Setup.Virtualized;
        machine = m;
        miralis = Some mir;
      },
      mir )
  in
  (* one warm-up round, then the steady state between two stamps *)
  let measure sys round =
    let script =
      [ round; Script.Cycle_stamp ]
      @ List.concat (List.init n (fun _ -> [ round ]))
      @ [ Script.Cycle_stamp; Script.End ]
    in
    Setup.run_scripts ~max_instrs:60_000_000L sys [ script ];
    let stamps = Script.stamps sys.Setup.machine ~hart:0 ~count:2 in
    (Int64.to_float (Int64.sub stamps.(1) stamps.(0)) /. float_of_int n)
    -. 26.
  in
  let with_enclave sys =
    Machine.load_program sys.Setup.machine region_base
      (Uapp.image ~base:region_base ~iters:5L);
    Script.write_descriptor sys.Setup.machine ~index:0 ~base:region_base
      ~size:region_size ~entry:region_base;
    sys
  in
  let sandbox_sys, _ =
    let policy, _ = Sandbox.create () in
    build ~policy ~pmp_slots:Sandbox.pmp_slots
  in
  let sandbox = measure sandbox_sys (Script.Putchar '\000') in
  let keystone_sys, _ =
    let policy, _ = Keystone.create () in
    build ~policy ~pmp_slots:Keystone.pmp_slots
  in
  let keystone = measure (with_enclave keystone_sys) (Script.Enclave_round 0L) in
  let ace_sys, ace_mir =
    let policy, _ = Ace.create () in
    build ~policy ~pmp_slots:Ace.pmp_slots
  in
  let ace = measure (with_enclave ace_sys) (Script.Cvm_round 0L) in
  let stats = ace_mir.Miralis.Monitor.stats in
  let steals = stats.Miralis.Vfm_stats.ace_steals
  and returns = stats.Miralis.Vfm_stats.ace_returns in
  let cost = p.Platform.cost in
  Printf.printf "  %-34s %10s\n" "round (policy)" "cycles";
  Printf.printf "  %-34s %10.1f\n" "SBI call (sandbox)" sandbox;
  Printf.printf "  %-34s %10.1f\n" "enclave round (keystone)" keystone;
  Printf.printf "  %-34s %10.1f\n" "CVM round (ace)" ace;
  Printf.printf
    "  charged per switch: steal=%d return=%d (+%d TLB flush); %d steals, \
     %d returns\n"
    cost.Miralis.Cost.ace_steal cost.Miralis.Cost.ace_return
    cost.Miralis.Cost.tlb_flush steals returns;
  let oc = open_out "BENCH_ace.json" in
  Printf.fprintf oc
    "{\n  \"platform\": \"%s\",\n  \"rounds\": %d,\n  \
     \"sandbox_sbi_call_cycles\": %.1f,\n  \
     \"keystone_round_cycles\": %.1f,\n  \"ace_round_cycles\": %.1f,\n  \
     \"steal_cycles\": %d,\n  \"return_cycles\": %d,\n  \
     \"tlb_flush_cycles\": %d,\n  \"ace_steals\": %d,\n  \
     \"ace_returns\": %d\n}\n"
    p.Platform.name n sandbox keystone ace cost.Miralis.Cost.ace_steal
    cost.Miralis.Cost.ace_return cost.Miralis.Cost.tlb_flush steals returns;
  close_out oc;
  print_endline "  wrote BENCH_ace.json"

(* ------------------------------------------------------------------ *)
(* Symbolic prover throughput (BENCH_sym.json)                         *)
(* ------------------------------------------------------------------ *)

let sym_bench () =
  print_endline "\nSymbolic faithful-emulation prover";
  print_endline "==================================";
  let reports = Mir_verif.Prove.all () in
  let paths = List.fold_left (fun a r -> a + r.Mir_verif.Prove.paths) 0 reports
  and instances =
    List.fold_left (fun a r -> a + r.Mir_verif.Prove.instances) 0 reports
  and seconds =
    List.fold_left (fun a r -> a +. r.Mir_verif.Prove.seconds) 0. reports
  in
  let hist_len =
    List.fold_left
      (fun a r -> max a (Array.length r.Mir_verif.Prove.depth_hist))
      0 reports
  in
  let hist = Array.make hist_len 0 in
  List.iter
    (fun r ->
      Array.iteri
        (fun d n -> hist.(d) <- hist.(d) + n)
        r.Mir_verif.Prove.depth_hist)
    reports;
  let max_depth = ref 0 in
  Array.iteri (fun d n -> if n > 0 then max_depth := d) hist;
  let paths_per_sec = float_of_int paths /. seconds in
  List.iter
    (fun r -> Format.printf "  %a@." Mir_verif.Prove.pp_report r)
    reports;
  Printf.printf "  %d paths in %.2fs: %.0f paths/sec (max split depth %d)\n"
    paths seconds paths_per_sec !max_depth;
  let task_json =
    String.concat ",\n    "
      (List.map
         (fun r ->
           Printf.sprintf
             "{\"name\": %S, \"instances\": %d, \"paths\": %d, \
              \"unexplored\": %d, \"proved\": %b, \"seconds\": %.3f}"
             r.Mir_verif.Prove.name r.Mir_verif.Prove.instances
             r.Mir_verif.Prove.paths r.Mir_verif.Prove.unexplored
             (Mir_verif.Prove.proved r) r.Mir_verif.Prove.seconds)
         reports)
  in
  let hist_json =
    String.concat ", "
      (Array.to_list (Array.mapi (fun _ n -> string_of_int n)
                        (Array.sub hist 0 (!max_depth + 1))))
  in
  let oc = open_out "BENCH_sym.json" in
  Printf.fprintf oc
    "{\n  \"instances\": %d,\n  \"paths\": %d,\n  \"seconds\": %.3f,\n  \
     \"paths_per_sec\": %.0f,\n  \"split_depth_hist\": [%s],\n  \
     \"tasks\": [\n    %s\n  ]\n}\n"
    instances paths seconds paths_per_sec hist_json task_json;
  close_out oc;
  print_endline "  wrote BENCH_sym.json"

(* ------------------------------------------------------------------ *)
(* Domain-parallel machine fleet (BENCH_fleet.json)                    *)
(* ------------------------------------------------------------------ *)

(* Run the same fleet at several domain counts.  Everything except
   wall-clock time must be bit-identical across counts (the fleet's
   determinism contract); the scaling table records how aggregate
   host-side throughput responds to domains.  On a single-core host
   the curve is flat — the "deterministic" bit is the part that must
   hold everywhere. *)
let fleet_bench () =
  print_endline "\nDomain-parallel machine fleet";
  print_endline "=============================";
  let module Fleet = Mir_fleet.Fleet in
  let machines =
    match Sys.getenv_opt "MIRALIS_FLEET_MACHINES" with
    | Some s -> int_of_string s
    | None -> 64
  in
  let duration_ms =
    match Sys.getenv_opt "MIRALIS_FLEET_DURATION_MS" with
    | Some s -> float_of_string s
    | None -> 1.0
  in
  let spec = { Fleet.default_spec with Fleet.machines; duration_ms } in
  let domain_counts =
    let recommended = Mir_fleet.Pool.default_domains () in
    List.sort_uniq compare (1 :: 2 :: 4 :: [ recommended ])
    |> List.filter (fun d -> d <= max 4 recommended)
  in
  Printf.printf "  %d machines, workload %s, seed 0x%Lx, %.2f ms each\n"
    machines spec.Fleet.workload spec.Fleet.seed duration_ms;
  let runs =
    List.map
      (fun domains ->
        let r = Fleet.run { spec with Fleet.domains } in
        let agg = Fleet.aggregate r in
        (domains, r, agg))
      domain_counts
  in
  let _, base_run, base = List.hd runs in
  let digests_of r =
    Array.map (fun m -> m.Fleet.digest) r.Fleet.results
  in
  let base_digests = digests_of base_run in
  let deterministic =
    List.for_all
      (fun (_, r, agg) ->
        digests_of r = base_digests
        && agg.Fleet.fleet_digest = base.Fleet.fleet_digest
        && agg.Fleet.requests = base.Fleet.requests
        && agg.Fleet.traps = base.Fleet.traps)
      runs
  in
  let base_wall = (fun (_, r, _) -> r.Fleet.wall_seconds) (List.hd runs) in
  let scaling =
    List.map
      (fun (domains, r, agg) ->
        (domains, r.Fleet.wall_seconds, agg.Fleet.traps_per_wall_sec,
         base_wall /. r.Fleet.wall_seconds))
      runs
  in
  let best_speedup =
    List.fold_left (fun a (_, _, _, s) -> max a s) 0. scaling
  in
  Printf.printf
    "  aggregate: %d requests, %d traps, %d world switches, %Ld instrs\n"
    base.Fleet.requests base.Fleet.traps base.Fleet.world_switches
    base.Fleet.instrs;
  Printf.printf "  simulated trap rate: %.0f traps/s (consolidated)\n"
    base.Fleet.sim_trap_rate;
  Printf.printf "  latency: p50=%.0f p99=%.0f p999=%.0f simulated cycles\n"
    base.Fleet.p50_cycles base.Fleet.p99_cycles base.Fleet.p999_cycles;
  List.iter
    (fun (d, wall, tps, speedup) ->
      Printf.printf
        "  domains=%d  wall=%.2fs  %8.0f traps/s host-side  speedup %.2fx\n"
        d wall tps speedup)
    scaling;
  Printf.printf "  deterministic across domain counts: %b\n" deterministic;
  if not base.Fleet.all_completed then
    print_endline "  WARNING: some machines hit the instruction budget";
  let oc = open_out "BENCH_fleet.json" in
  Printf.fprintf oc
    "{\n  \"machines\": %d,\n  \"workload\": %S,\n  \"seed\": \"0x%Lx\",\n  \
     \"duration_ms\": %.3f,\n  \"requests\": %d,\n  \"traps\": %d,\n  \
     \"world_switches\": %d,\n  \"offload_hits\": %d,\n  \
     \"instrs\": %Ld,\n  \"all_completed\": %b,\n  \
     \"sim_trap_rate\": %.0f,\n  \"p50_cycles\": %.0f,\n  \
     \"p99_cycles\": %.0f,\n  \"p999_cycles\": %.0f,\n  \
     \"fleet_digest\": \"%016Lx\",\n  \"deterministic\": %b,\n  \
     \"best_speedup\": %.3f,\n  \"scaling\": [\n%s\n  ]\n}\n"
    machines spec.Fleet.workload spec.Fleet.seed duration_ms
    base.Fleet.requests base.Fleet.traps base.Fleet.world_switches
    base.Fleet.offload_hits base.Fleet.instrs base.Fleet.all_completed
    base.Fleet.sim_trap_rate base.Fleet.p50_cycles base.Fleet.p99_cycles
    base.Fleet.p999_cycles base.Fleet.fleet_digest deterministic
    best_speedup
    (String.concat ",\n"
       (List.map
          (fun (d, wall, tps, speedup) ->
            Printf.sprintf
              "    {\"domains\": %d, \"wall_seconds\": %.3f, \
               \"traps_per_sec\": %.0f, \"speedup\": %.3f}"
              d wall tps speedup)
          scaling));
  close_out oc;
  print_endline "  wrote BENCH_fleet.json"

(* ------------------------------------------------------------------ *)
(* Static analyzer cost (BENCH_lint.json)                               *)
(* ------------------------------------------------------------------ *)

(* The invariant analyzer runs on every CI cycle and is meant to grow a
   rule per PR, so its cost stays on the dashboard: parse + rule-engine
   throughput in files/sec over the real tree. *)
let lint_bench () =
  print_endline "\nStatic analyzer throughput (lib/analysis)";
  print_endline "=========================================";
  let module Lint = Mir_analysis.Lint in
  let module Rules = Mir_analysis.Rules in
  let rec find_root dir depth =
    if depth > 8 then None
    else if Sys.file_exists (Filename.concat dir "lib/rv") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_root parent (depth + 1)
  in
  match find_root (Sys.getcwd ()) 0 with
  | None -> print_endline "  repository sources not found; skipped"
  | Some root ->
      (* one warm-up pass faults the sources into the page cache *)
      let warm = Lint.run ~root ~dirs:Lint.default_dirs () in
      let passes = 5 in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to passes do
        ignore (Lint.run ~root ~dirs:Lint.default_dirs ())
      done;
      let dt = Unix.gettimeofday () -. t0 in
      let files_per_sec = float_of_int (warm.Lint.files * passes) /. dt in
      let nrules = List.length Rules.all in
      Printf.printf
        "  %d files × %d rules × %d passes in %.2fs  →  %8.0f files/sec\n"
        warm.Lint.files nrules passes dt files_per_sec;
      Printf.printf "  diagnostics on the tree: %d\n"
        (List.length warm.Lint.diagnostics);
      let oc = open_out "BENCH_lint.json" in
      Printf.fprintf oc
        "{\n  \"files\": %d,\n  \"rules\": %d,\n  \"passes\": %d,\n  \
         \"seconds\": %.3f,\n  \"files_per_sec\": %.0f,\n  \
         \"diagnostics\": %d\n}\n"
        warm.Lint.files nrules passes dt files_per_sec
        (List.length warm.Lint.diagnostics);
      close_out oc;
      print_endline "  wrote BENCH_lint.json"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the simulator's primitives              *)
(* ------------------------------------------------------------------ *)

let micro () =
  print_endline "\nSimulator microbenchmarks (Bechamel)";
  print_endline "====================================";
  let open Bechamel in
  let open Toolkit in
  let decode_word = 0x34011173 (* csrrw sp, mscratch, sp *) in
  let machine = Mir_rv.Machine.create Mir_rv.Machine.default_config in
  let hart = machine.Mir_rv.Machine.harts.(0) in
  let image, _ =
    Mir_asm.Asm.assemble ~base:0x80000000L
      Mir_asm.Asm.I.
        [ label "loop"; addi Mir_asm.Asm.Reg.a0 Mir_asm.Asm.Reg.a0 1L;
          xor Mir_asm.Asm.Reg.a1 Mir_asm.Asm.Reg.a1 Mir_asm.Asm.Reg.a0;
          j "loop" ]
  in
  Mir_rv.Machine.load_program machine 0x80000000L image;
  Mir_rv.Hart.reset hart ~pc:0x80000000L;
  let ranges = Mir_rv.Csr_file.pmp_ranges hart.Mir_rv.Hart.csr in
  (* a TLB with one hot entry: the hit path must stay allocation-free,
     which the minor-words column below verifies *)
  let tlb = Mir_rv.Tlb.create ~entries:256 in
  Mir_rv.Tlb.install tlb ~priv:Mir_rv.Priv.S ~vaddr:0x4000L
    ~phys:0x80004000L ~pte:0xCFL ~sum:false ~mxr:false ~pmp_r:true
    ~pmp_w:true ~pmp_x:true;
  let tests =
    [
      Test.make ~name:"tlb-hit-load" (Staged.stage (fun () ->
          ignore
            (Mir_rv.Tlb.lookup tlb ~priv:Mir_rv.Priv.S Mir_rv.Vmem.Load
               0x4123L)));
      Test.make ~name:"decode" (Staged.stage (fun () ->
          ignore (Mir_rv.Decode.decode decode_word)));
      Test.make ~name:"hart-step" (Staged.stage (fun () ->
          Mir_rv.Machine.step machine hart));
      Test.make ~name:"pmp-check" (Staged.stage (fun () ->
          ignore
            (Mir_rv.Pmp.check_ranges ranges ~priv:Mir_rv.Priv.S
               Mir_rv.Pmp.Read ~addr:0x80001000L ~size:8)));
      Test.make ~name:"csr-read" (Staged.stage (fun () ->
          ignore
            (Mir_rv.Csr_file.read hart.Mir_rv.Hart.csr
               Mir_rv.Csr_addr.mstatus)));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock; minor_allocated ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) () in
    Benchmark.all cfg instances test
  in
  let raw = benchmark (Test.make_grouped ~name:"sim" tests) in
  let analyze instance =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      instance raw
  in
  let times = analyze Instance.monotonic_clock in
  let words = analyze Instance.minor_allocated in
  let estimate tbl name =
    match Analyze.OLS.estimates (Hashtbl.find tbl name) with
    | Some [ est ] -> est
    | _ | (exception Not_found) -> nan
  in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
          let w = estimate words name in
          Printf.printf "  %-24s %8.1f ns/op  %8.2f minor words/op%s\n" name
            est w
            (if w < 1.0 then "  [alloc-free]" else "")
      | _ -> ())
    times

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let t0 = Unix.gettimeofday () in
  (match args with
  | [] ->
      List.iter (fun (_, f) -> f ()) experiments;
      trace_bench ();
      sym_bench ();
      ips_bench ();
      explore_bench ();
      ace_bench ();
      fleet_bench ();
      lint_bench ();
      micro ()
  | names ->
      List.iter
        (fun name ->
          if name = "micro" then micro ()
          else if name = "trace" then trace_bench ()
          else if name = "sym" then sym_bench ()
          else if name = "ips" then ips_bench ()
          else if name = "explore" then explore_bench ()
          else if name = "ace" then ace_bench ()
          else if name = "fleet" then fleet_bench ()
          else if name = "lint" then lint_bench ()
          else
            match List.assoc_opt name experiments with
            | Some f -> f ()
            | None ->
                Printf.eprintf
                  "unknown experiment %S; known: %s trace sym ips explore \
                   ace fleet lint micro\n"
                  name
                  (String.concat " " (List.map fst experiments)))
        names);
  Printf.printf "\n[bench completed in %.1fs]\n" (Unix.gettimeofday () -. t0)
