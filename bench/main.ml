(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md for the experiment index), plus
   figures about the simulator itself — record/replay overhead, the
   symbolic prover, the ACE world-switch cost, the fleet, the analyzer
   — and Bechamel microbenchmarks of its hot primitives. perfbench/
   times the simulator's workloads for comparisons between commits.

   Usage:
     bench/main.exe               run everything
     bench/main.exe <name>...     run selected experiments
   Names: table1 table2 table3 table4 table5 fig3 fig10 fig11 fig12
          fig13 fig14 boottime sstc q1 q4 trace sym ace fleet lint
          micro. An unknown name exits 2 before anything runs. *)

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
  Report.(
    write "trace"
      [
        ("ips_off", float 0 ips_off);
        ("ips_recording", float 0 ips_on);
        ("ips_replay", float 0 ips_replay);
        ("recording_overhead", float 3 overhead);
        ("events", int nevents);
        ("checkpoints", int ncheckpoints);
        ("diverged", bool diverged);
      ])

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
  let build (policy, _) ~pmp_slots =
    Setup.create ~policy ~policy_pmp_slots:pmp_slots p Setup.Virtualized
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
  let sandbox =
    measure
      (build (Sandbox.create ()) ~pmp_slots:Sandbox.pmp_slots)
      (Script.Putchar '\000')
  in
  let keystone =
    measure
      (with_enclave (build (Keystone.create ()) ~pmp_slots:Keystone.pmp_slots))
      (Script.Enclave_round 0L)
  in
  let ace_sys = build (Ace.create ()) ~pmp_slots:Ace.pmp_slots in
  let ace = measure (with_enclave ace_sys) (Script.Cvm_round 0L) in
  let stats = (Option.get ace_sys.Setup.miralis).Miralis.Monitor.stats in
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
  Report.(
    write "ace"
      [
        ("platform", str p.Platform.name);
        ("rounds", int n);
        ("sandbox_sbi_call_cycles", float 1 sandbox);
        ("keystone_round_cycles", float 1 keystone);
        ("ace_round_cycles", float 1 ace);
        ("steal_cycles", int cost.Miralis.Cost.ace_steal);
        ("return_cycles", int cost.Miralis.Cost.ace_return);
        ("tlb_flush_cycles", int cost.Miralis.Cost.tlb_flush);
        ("ace_steals", int steals);
        ("ace_returns", int returns);
      ])

(* ------------------------------------------------------------------ *)
(* Symbolic prover throughput (BENCH_sym.json)                         *)
(* ------------------------------------------------------------------ *)

let sym_bench () =
  print_endline "\nSymbolic faithful-emulation prover";
  print_endline "==================================";
  let module P = Mir_verif.Prove in
  let reports = P.all () in
  let paths = List.fold_left (fun a r -> a + r.P.paths) 0 reports
  and instances = List.fold_left (fun a r -> a + r.P.instances) 0 reports
  and seconds = List.fold_left (fun a r -> a +. r.P.seconds) 0. reports in
  let hist_len =
    List.fold_left (fun a r -> max a (Array.length r.P.depth_hist)) 0 reports
  in
  let hist = Array.make hist_len 0 in
  List.iter
    (fun r -> Array.iteri (fun d n -> hist.(d) <- hist.(d) + n) r.P.depth_hist)
    reports;
  let max_depth = ref 0 in
  Array.iteri (fun d n -> if n > 0 then max_depth := d) hist;
  let paths_per_sec = float_of_int paths /. seconds in
  List.iter (fun r -> Format.printf "  %a@." P.pp_report r) reports;
  Printf.printf "  %d paths in %.2fs: %.0f paths/sec (max split depth %d)\n"
    paths seconds paths_per_sec !max_depth;
  let task r =
    Report.(
      obj
        [
          ("name", str r.P.name);
          ("instances", int r.P.instances);
          ("paths", int r.P.paths);
          ("unexplored", int r.P.unexplored);
          ("proved", bool (P.proved r));
          ("seconds", float 3 r.P.seconds);
        ])
  in
  Report.(
    write "sym"
      [
        ("instances", int instances);
        ("paths", int paths);
        ("seconds", float 3 seconds);
        ("paths_per_sec", float 0 paths_per_sec);
        ( "split_depth_hist",
          list (List.map int (Array.to_list (Array.sub hist 0 (!max_depth + 1))))
        );
        ("tasks", list (List.map task reports));
      ])

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
  Report.(
    write "fleet"
      [
        ("machines", int machines);
        ("workload", str spec.Fleet.workload);
        ("seed", str (Printf.sprintf "0x%Lx" spec.Fleet.seed));
        ("duration_ms", float 3 duration_ms);
        ("requests", int base.Fleet.requests);
        ("traps", int base.Fleet.traps);
        ("world_switches", int base.Fleet.world_switches);
        ("offload_hits", int base.Fleet.offload_hits);
        ("instrs", Int64.to_string base.Fleet.instrs);
        ("all_completed", bool base.Fleet.all_completed);
        ("sim_trap_rate", float 0 base.Fleet.sim_trap_rate);
        ("p50_cycles", float 0 base.Fleet.p50_cycles);
        ("p99_cycles", float 0 base.Fleet.p99_cycles);
        ("p999_cycles", float 0 base.Fleet.p999_cycles);
        ("fleet_digest", str (Printf.sprintf "%016Lx" base.Fleet.fleet_digest));
        ("deterministic", bool deterministic);
        ("best_speedup", float 3 best_speedup);
        ( "scaling",
          list
            (List.map
               (fun (d, wall, tps, speedup) ->
                 obj
                   [
                     ("domains", int d);
                     ("wall_seconds", float 3 wall);
                     ("traps_per_sec", float 0 tps);
                     ("speedup", float 3 speedup);
                   ])
               scaling) );
      ])

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
  match Mir_harness.Loc.project_root () with
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
      Report.(
        write "lint"
          [
            ("files", int warm.Lint.files);
            ("rules", int nrules);
            ("passes", int passes);
            ("seconds", float 3 dt);
            ("files_per_sec", float 0 files_per_sec);
            ("diagnostics", int (List.length warm.Lint.diagnostics));
          ])

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

let benches =
  Mir_experiments.Exp_index.all
  @ [
      ("trace", trace_bench); ("sym", sym_bench); ("ace", ace_bench);
      ("fleet", fleet_bench); ("lint", lint_bench); ("micro", micro);
    ]

let () =
  match
    Mir_experiments.Exp_index.select benches (List.tl (Array.to_list Sys.argv))
  with
  | Error e ->
      prerr_endline e;
      exit 2
  | Ok runs ->
      let t0 = Unix.gettimeofday () in
      List.iter (fun f -> f ()) runs;
      Printf.printf "\n[bench completed in %.1fs]\n"
        (Unix.gettimeofday () -. t0)
