(* End-to-end integration: the same unmodified MiniSBI firmware image
   and interpreter kernel run (a) natively in M-mode, (b) under
   Miralis with fast-path offload, and (c) under Miralis without
   offload — and must behave identically (paper Q1). *)

module Setup = Mir_harness.Setup
module Script = Mir_kernel.Script
module Platform = Mir_platform.Platform
module Machine = Mir_rv.Machine

let vf2 = Platform.visionfive2

let smoke_script =
  [
    Script.Putchar 'A';
    Script.Rdtime;
    Script.Set_timer 100L;
    Script.Tick_wfi 50L;
    Script.Ipi_self;
    Script.Compute 50L;
    Script.Misaligned_load;
    Script.Misaligned_store;
    Script.Putchar 'Z';
    Script.End;
  ]

let run_mode mode =
  let sys = Setup.create vf2 mode in
  Setup.run_scripts sys [ smoke_script ];
  sys

let check_smoke name sys =
  Alcotest.(check bool)
    (name ^ ": powered off") true sys.Setup.machine.Machine.poweroff;
  Helpers.check_str (name ^ ": uart") "AZ" (Setup.uart_output sys);
  Alcotest.(check bool)
    (name ^ ": got a timer tick") true
    (Script.sti_count sys.Setup.machine ~hart:0 >= 1L);
  Alcotest.(check bool)
    (name ^ ": got the self IPI") true
    (Script.ssi_count sys.Setup.machine ~hart:0 >= 1L)

let test_native () = check_smoke "native" (run_mode Setup.Native)

let test_virtualized () =
  let sys = run_mode Setup.Virtualized in
  check_smoke "miralis" sys;
  let stats = Option.get (Setup.stats sys) in
  Alcotest.(check bool)
    "no violation" true
    ((Option.get sys.Setup.miralis).Miralis.Monitor.violation = None);
  (* With offload, the hot operations must not enter the firmware. *)
  Alcotest.(check bool)
    "offload hits" true
    (Miralis.Vfm_stats.offload_hits stats >= 4)

let test_no_offload () =
  let sys = run_mode Setup.Virtualized_no_offload in
  check_smoke "no-offload" sys;
  let stats = Option.get (Setup.stats sys) in
  Alcotest.(check int) "no offload hits" 0
    (Miralis.Vfm_stats.offload_hits stats);
  Alcotest.(check bool)
    "world switches happened" true
    (stats.Miralis.Vfm_stats.world_switches > 3);
  Alcotest.(check bool)
    "instructions were emulated" true
    (stats.Miralis.Vfm_stats.emulated_instrs > 20)

(* Differential run: kernel-observable behaviour must be identical in
   all three modes. *)
let test_differential () =
  let script =
    [
      Script.Putchar 'h';
      Script.Rdtime;
      Script.Compute 100L;
      Script.Ipi_self;
      Script.Misaligned_load;
      Script.Set_timer 200L;
      Script.Tick_wfi 100L;
      Script.Putchar 'i';
      Script.Loop 3L;
      Script.End;
    ]
  in
  let observe mode =
    let sys = Setup.create vf2 mode in
    Setup.run_scripts sys [ script ];
    ( Setup.uart_output sys,
      Script.sti_count sys.Setup.machine ~hart:0,
      Script.ssi_count sys.Setup.machine ~hart:0,
      sys.Setup.machine.Machine.poweroff )
  in
  let n = observe Setup.Native in
  let v = observe Setup.Virtualized in
  let nf = observe Setup.Virtualized_no_offload in
  let pp (u, sti, ssi, off) =
    Printf.sprintf "uart=%S sti=%Ld ssi=%Ld off=%b" u sti ssi off
  in
  Helpers.check_str "native = virtualized" (pp n) (pp v);
  Helpers.check_str "native = no-offload" (pp n) (pp nf)

let test_multihart_ipi_all () =
  let script0 =
    [ Script.Compute 100L; Script.Ipi_all; Script.Compute 2000L; Script.End ]
  in
  let others = [ Script.Halt ] in
  let observe mode =
    let sys = Setup.create vf2 mode in
    Setup.run_scripts sys [ script0; others; others; others ];
    List.init 4 (fun h -> Script.ssi_count sys.Setup.machine ~hart:h)
  in
  let n = observe Setup.Native in
  let v = observe Setup.Virtualized in
  (* Hart 0 acknowledges its own SSI through the handler; parked harts
     receive the SSI in wfi (counted too, since sie is enabled before
     halting... they halt before enabling - only hart 0 counts). *)
  Alcotest.(check bool) "hart0 got ipi (native)" true (List.nth n 0 >= 1L);
  Alcotest.(check bool) "hart0 got ipi (miralis)" true (List.nth v 0 >= 1L)

let test_world_switch_rate_low_with_offload () =
  (* Paper: ~0.5 world switches per second with offload across the
     microbenchmarks. With offload every hot op stays in Miralis, so a
     trap-heavy script must cause (almost) no world switches. *)
  let script =
    List.concat (List.init 200 (fun _ -> [ Script.Rdtime; Script.Ipi_self ]))
    @ [ Script.End ]
  in
  let sys = Setup.create vf2 Setup.Virtualized in
  Setup.run_scripts sys [ script ];
  let stats = Option.get (Setup.stats sys) in
  Alcotest.(check bool)
    "few world switches" true
    (stats.Miralis.Vfm_stats.world_switches <= 2);
  Alcotest.(check bool)
    "many offload hits" true
    (Miralis.Vfm_stats.offload_hits stats >= 400)

let test_p550_platform_with_custom_csrs () =
  (* The P550 model allows four custom CSRs through to hardware and
     has the H extension; the same firmware boots. *)
  let sys = Setup.create Platform.premier_p550 Setup.Virtualized in
  Setup.run_scripts sys [ [ Script.Putchar 'P'; Script.End ] ];
  Helpers.check_str "p550 uart" "P" (Setup.uart_output sys);
  Alcotest.(check bool)
    "no violation" true
    ((Option.get sys.Setup.miralis).Miralis.Monitor.violation = None)

let test_paging_differential () =
  (* The kernel enables Sv39 mid-run; misaligned accesses then force
     the firmware's MPRV path (and, under Miralis, the MPRV-emulation
     PMP trick) through real page tables. All three modes must agree. *)
  let script sys =
    [
      Script.Enable_paging (Mir_kernel.Paging.identity_satp sys.Setup.machine);
      Script.Putchar 'p';
      Script.Misaligned_load;
      Script.Misaligned_store;
      Script.Rdtime;
      Script.Set_timer 150L;
      Script.Tick_wfi 80L;
      Script.Putchar 'g';
      Script.End;
    ]
  in
  let observe mode =
    let sys = Setup.create vf2 mode in
    Setup.run_scripts sys [ script sys ];
    ( Setup.uart_output sys,
      sys.Setup.machine.Machine.poweroff,
      Script.sti_count sys.Setup.machine ~hart:0 >= 1L )
  in
  let n = observe Setup.Native in
  let v = observe Setup.Virtualized in
  let nf = observe Setup.Virtualized_no_offload in
  Alcotest.(check bool) "native runs paged" true (n = ("pg", true, true));
  Alcotest.(check bool) "virtualized agrees" true (n = v);
  Alcotest.(check bool) "no-offload agrees" true (n = nf)

let test_qemu_virt_no_traps () =
  (* On an RVA23-class platform (time CSR + Sstc) rdtime never traps:
     Miralis sees no OS traps from the hot loop at all. *)
  let script =
    List.init 100 (fun _ -> Script.Rdtime) @ [ Script.End ]
  in
  let sys = Setup.create Platform.qemu_virt Setup.Virtualized in
  Setup.run_scripts sys [ script ];
  let stats = Option.get (Setup.stats sys) in
  Alcotest.(check int) "no time-read offloads" 0
    stats.Miralis.Vfm_stats.offload_time_read

let test_quiescent_run_returns () =
  (* Two harts parked in S-mode wfi with nothing armed to wake them:
     idle wfi quanta charge cycles but no budget, so [run] must notice
     quiescence and return instead of spinning. The round guard turns
     a hang into a failure. *)
  let p =
    {
      vf2 with
      Platform.machine = { vf2.Platform.machine with Machine.nharts = 2 };
    }
  in
  let sys = Setup.create p Setup.Virtualized in
  let m = sys.Setup.machine in
  let rounds = ref 0 in
  m.Machine.on_chunk <-
    Some
      (fun _ ->
        incr rounds;
        if !rounds > 10_000 then failwith "run did not return when quiescent");
  Setup.run_scripts ~max_instrs:100_000L sys
    [ [ Script.Halt ]; [ Script.Halt ] ];
  Alcotest.(check bool) "quiescent" true (Machine.quiescent m);
  Alcotest.(check bool) "no power-off" false m.Machine.poweroff;
  Alcotest.(check bool)
    "stopped before the budget" true
    (m.Machine.instr_count < 100_000);
  Array.iter
    (fun h ->
      Alcotest.(check bool) "hart idles in wfi" true h.Mir_rv.Hart.wfi)
    m.Machine.harts

(* A run that powers off is not quiescent, so [run] prints no
   quiescence line for it. *)
let test_finished_run_not_quiescent () =
  let sys = Setup.create vf2 Setup.Virtualized in
  Setup.run_scripts sys [ [ Script.End ] ];
  let m = sys.Setup.machine in
  Alcotest.(check bool) "powered off" true m.Machine.poweroff;
  Alcotest.(check bool) "not quiescent" false (Machine.quiescent m)

let () =
  Alcotest.run "integration"
    [
      ( "integration",
        [
          Alcotest.test_case "native boot" `Quick test_native;
          Alcotest.test_case "virtualized boot" `Quick test_virtualized;
          Alcotest.test_case "no-offload boot" `Quick test_no_offload;
          Alcotest.test_case "differential 3 modes" `Quick test_differential;
          Alcotest.test_case "multihart ipi" `Quick test_multihart_ipi_all;
          Alcotest.test_case "world switch rate" `Quick
            test_world_switch_rate_low_with_offload;
          Alcotest.test_case "p550 custom CSRs" `Quick
            test_p550_platform_with_custom_csrs;
          Alcotest.test_case "qemu-virt no traps" `Quick
            test_qemu_virt_no_traps;
          Alcotest.test_case "paging differential" `Quick
            test_paging_differential;
          Alcotest.test_case "quiescent run returns" `Quick
            test_quiescent_run_returns;
          Alcotest.test_case "finished run not quiescent" `Quick
            test_finished_run_not_quiescent;
        ] );
    ]
