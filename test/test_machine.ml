(* End-to-end machine tests: assembled programs executed on the
   simulated hart, covering arithmetic, traps, delegation, interrupts,
   PMP enforcement, privilege transitions and devices. *)

module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Csr_file = Mir_rv.Csr_file
module C = Mir_rv.Csr_addr
module Pmp = Mir_rv.Pmp
module Clint = Mir_rv.Clint
module Asm = Mir_asm.Asm
open Asm.I
open Asm.Reg

let ram_base = Machine.default_config.Machine.ram_base

(* Common epilogue: write the 0x5555 "finish" token to the syscon. *)
let poweroff = [ li t6 0x100000L; li t5 0x5555L; sw t5 0L t6 ]

(* Scratch cell in RAM used by programs to report results. *)
let result_addr = Int64.add ram_base 0x100000L
let store_result reg = [ li t6 result_addr; sd reg 0L t6 ]

let result m = Option.get (Machine.phys_load m result_addr 8)

let run prog =
  let m, _ = Helpers.machine_with prog in
  ignore (Helpers.run_to_completion m);
  m

let test_arithmetic_loop () =
  (* sum of 1..10 *)
  let m =
    run
      ([ li a0 0L; li a1 10L; label "loop"; add a0 a0 a1; addi a1 a1 (-1L);
         bnez a1 "loop" ]
      @ store_result a0 @ poweroff)
  in
  Helpers.check_i64 "sum" 55L (result m)

let test_memory_ops () =
  let m =
    run
      ([
         li a0 (Int64.add ram_base 0x2000L);
         li a1 0x1122334455667788L;
         sd a1 0L a0;
         lw a2 0L a0; (* sign-extended low word *)
         lwu a3 4L a0;
         lb a4 7L a0;
         lhu a5 0L a0;
         add a6 a2 a3;
         add a6 a6 a4;
         add a6 a6 a5;
       ]
      @ store_result a6 @ poweroff)
  in
  (* lw = 0x55667788 sign-extends positive; lwu = 0x11223344;
     lb(7) = 0x11; lhu = 0x7788 *)
  let expect =
    Int64.add
      (Int64.add 0x55667788L 0x11223344L)
      (Int64.add 0x11L 0x7788L)
  in
  Helpers.check_i64 "loads" expect (result m)

let test_ecall_to_mtvec () =
  let m =
    run
      ([ la t0 "mtrap"; csrw C.mtvec t0; ecall; label "after" ]
      @ store_result zero @ poweroff
      @ [ label "mtrap"; csrr a0 C.mcause ]
      @ store_result a0 @ poweroff)
  in
  (* ecall from M = cause 11 *)
  Helpers.check_i64 "mcause" 11L (result m)

let test_mret_to_umode_and_illegal () =
  (* Drop to U-mode; executing mret there must trap as illegal
     instruction (the mechanism vM-mode is built on). PMP must open
     memory for U-mode first. *)
  let m =
    run
      ([
         (* PMP entry 0: allow everything *)
         li t0 (-1L);
         csrw (C.pmpaddr 0) t0;
         li t0 0x1FL; (* NAPOT RWX *)
         csrw (C.pmpcfg 0) t0;
         la t0 "mtrap";
         csrw C.mtvec t0;
         la t0 "ucode";
         csrw C.mepc t0;
         (* clear MPP to U *)
         li t1 0x1800L;
         csrc C.mstatus t1;
         mret;
         label "ucode";
         mret; (* illegal in U *)
         label "mtrap";
         csrr a0 C.mcause;
         csrr a1 C.mtval;
       ]
      @ store_result a0 @ poweroff)
  in
  Helpers.check_i64 "illegal cause" 2L (result m);
  (* mtval must carry the raw mret encoding. *)
  let h = m.Machine.harts.(0) in
  Helpers.check_i64 "mtval = mret bits" 0x30200073L
    (Csr_file.read_raw h.Hart.csr C.mtval)

let test_medeleg_routes_to_smode () =
  (* Delegate ecall-from-U to S-mode and check the S handler runs. *)
  let m =
    run
      ([
         li t0 (-1L);
         csrw (C.pmpaddr 0) t0;
         li t0 0x1FL;
         csrw (C.pmpcfg 0) t0;
         la t0 "mtrap";
         csrw C.mtvec t0;
         la t0 "strap";
         csrw C.stvec t0;
         (* medeleg bit 8: ecall from U *)
         li t0 0x100L;
         csrw C.medeleg t0;
         la t0 "ucode";
         csrw C.mepc t0;
         li t1 0x1800L;
         csrc C.mstatus t1;
         mret;
         label "ucode";
         ecall;
         label "strap";
         csrr a0 C.scause;
         li a1 100L;
         add a0 a0 a1;
       ]
      @ store_result a0 @ poweroff
      @ [ label "mtrap" ] @ store_result zero @ poweroff)
  in
  (* scause 8 + 100 marker proves the S handler ran. *)
  Helpers.check_i64 "s-handler" 108L (result m)

let test_timer_interrupt () =
  let clint_mtime = Int64.add Clint.default_base Clint.mtime_offset in
  let clint_mtimecmp = Int64.add Clint.default_base (Clint.mtimecmp_offset 0) in
  let m =
    run
      [
        la t0 "mtrap";
        csrw C.mtvec t0;
        (* mie.MTIE *)
        li t0 0x80L;
        csrw C.mie t0;
        li t1 clint_mtime;
        ld t2 0L t1;
        addi t2 t2 20L;
        li t3 clint_mtimecmp;
        sd t2 0L t3;
        (* mstatus.MIE *)
        csrsi C.mstatus 8;
        label "idle";
        wfi;
        j "idle";
        label "mtrap";
        csrr a0 C.mcause;
        li t6 result_addr;
        sd a0 0L t6;
        li t6 0x100000L;
        li t5 0x5555L;
        sw t5 0L t6;
      ]
  in
  (* Interrupt bit | code 7 *)
  Helpers.check_i64 "mti cause" (Int64.logor (Int64.shift_left 1L 63) 7L)
    (result m)

let test_software_interrupt_ipi () =
  (* Hart 0 sends itself a software interrupt through the CLINT. *)
  let msip0 = Int64.add Clint.default_base (Clint.msip_offset 0) in
  let m =
    run
      [
        la t0 "mtrap";
        csrw C.mtvec t0;
        li t0 0x8L; (* mie.MSIE *)
        csrw C.mie t0;
        csrsi C.mstatus 8;
        li t1 msip0;
        li t2 1L;
        sw t2 0L t1;
        label "spin";
        j "spin";
        label "mtrap";
        csrr a0 C.mcause;
        li t6 result_addr;
        sd a0 0L t6;
        li t6 0x100000L;
        li t5 0x5555L;
        sw t5 0L t6;
      ]
  in
  Helpers.check_i64 "msi cause" (Int64.logor (Int64.shift_left 1L 63) 3L)
    (result m)

let test_pmp_denies_umode () =
  (* Entry 0 denies a window; entry 1 allows everything. A U-mode load
     in the window must fault with cause 5. *)
  let secret = Int64.add ram_base 0x300000L in
  let m =
    run
      ([
         li t0 (Pmp.napot_encode ~base:secret ~size:0x1000L);
         csrw (C.pmpaddr 0) t0;
         li t1 (-1L);
         csrw (C.pmpaddr 1) t1;
         (* cfg: entry0 = NAPOT no-perm (0x18), entry1 = NAPOT RWX (0x1F) *)
         li t2 0x1F18L;
         csrw (C.pmpcfg 0) t2;
         la t0 "mtrap";
         csrw C.mtvec t0;
         la t0 "ucode";
         csrw C.mepc t0;
         li t1 0x1800L;
         csrc C.mstatus t1;
         mret;
         label "ucode";
         li a0 secret;
         ld a1 0L a0; (* must fault *)
         label "mtrap";
         csrr a0 C.mcause;
       ]
      @ store_result a0 @ poweroff)
  in
  Helpers.check_i64 "load access fault" 5L (result m)

let test_misaligned_load_traps () =
  let m =
    run
      ([
         la t0 "mtrap";
         csrw C.mtvec t0;
         li a0 (Int64.add ram_base 0x2001L);
         ld a1 0L a0;
         label "mtrap";
         csrr a0 C.mcause;
       ]
      @ store_result a0 @ poweroff)
  in
  Helpers.check_i64 "load misaligned" 4L (result m)

let test_time_csr_traps_without_counter () =
  (* default config: has_time_csr = false (like the VisionFive 2). *)
  let m =
    run
      ([
         la t0 "mtrap";
         csrw C.mtvec t0;
         csrr a0 C.time;
         label "mtrap";
         csrr a0 C.mcause;
       ]
      @ store_result a0 @ poweroff)
  in
  Helpers.check_i64 "time read illegal" 2L (result m)

let test_time_csr_reads_with_counter () =
  let config =
    {
      Machine.default_config with
      Machine.csr_config =
        { Mir_rv.Csr_spec.default_config with has_time_csr = true };
    }
  in
  let m, _ =
    Helpers.machine_with ~config
      ([
         (* enable TM in mcounteren for completeness (read from M is
            always allowed) *)
         csrr a0 C.time;
         addi a0 a0 1L;
       ]
      @ store_result a0 @ poweroff)
  in
  ignore (Helpers.run_to_completion m);
  Alcotest.(check bool) "time read >= 1" true (result m >= 1L)

let test_uart_output () =
  let uart = Mir_rv.Uart.default_base in
  let m =
    run
      ([
         li t0 uart;
         li t1 (Int64.of_int (Char.code 'h'));
         sb t1 0L t0;
         li t1 (Int64.of_int (Char.code 'i'));
         sb t1 0L t0;
       ]
      @ poweroff)
  in
  Helpers.check_str "uart" "hi" (Mir_rv.Uart.output m.Machine.uart)

let test_wfi_wakes_on_pending_disabled () =
  (* WFI must wake when an interrupt becomes pending even if
     mstatus.MIE is clear; execution continues sequentially. *)
  let clint_mtime = Int64.add Clint.default_base Clint.mtime_offset in
  let clint_mtimecmp = Int64.add Clint.default_base (Clint.mtimecmp_offset 0) in
  let m =
    run
      ([
         li t0 0x80L;
         csrw C.mie t0;
         (* MIE stays clear *)
         li t1 clint_mtime;
         ld t2 0L t1;
         addi t2 t2 20L;
         li t3 clint_mtimecmp;
         sd t2 0L t3;
         wfi;
         li a0 7L;
       ]
      @ store_result a0 @ poweroff)
  in
  Helpers.check_i64 "resumed after wfi" 7L (result m)

let test_sret_returns_to_umode () =
  let m =
    run
      ([
         li t0 (-1L);
         csrw (C.pmpaddr 0) t0;
         li t0 0x1FL;
         csrw (C.pmpcfg 0) t0;
         la t0 "mtrap";
         csrw C.mtvec t0;
         (* enter S-mode *)
         la t0 "scode";
         csrw C.mepc t0;
         li t1 0x1800L;
         csrc C.mstatus t1;
         li t1 0x800L;
         csrs C.mstatus t1;
         (* MPP = S *)
         mret;
         label "scode";
         (* from S, sret to U *)
         la t0 "ucode";
         csrw C.sepc t0;
         (* clear SPP -> U *)
         li t1 0x100L;
         csrc C.sstatus t1;
         sret;
         label "ucode";
         ecall; (* from U -> M (not delegated) *)
         label "mtrap";
         csrr a0 C.mcause;
       ]
      @ store_result a0 @ poweroff)
  in
  Helpers.check_i64 "ecall from U" 8L (result m)

let test_multihart_ipi () =
  (* Hart 0 IPIs hart 1; hart 1's handler reports and powers off. *)
  let config = { Machine.default_config with Machine.nharts = 2 } in
  let msip1 = Int64.add Clint.default_base (Clint.msip_offset 1) in
  let prog =
    [
      (* all harts start here; discriminate on mhartid *)
      csrr t0 C.mhartid;
      bnez t0 "hart1";
      (* hart 0: send IPI to hart 1, then spin *)
      li t1 msip1;
      li t2 1L;
      sw t2 0L t1;
      label "spin0";
      j "spin0";
      label "hart1";
      la t0 "mtrap";
      csrw C.mtvec t0;
      li t0 0x8L;
      csrw C.mie t0;
      csrsi C.mstatus 8;
      label "spin1";
      wfi;
      j "spin1";
      label "mtrap";
      csrr a0 C.mcause;
      li t6 result_addr;
      sd a0 0L t6;
      li t6 0x100000L;
      li t5 0x5555L;
      sw t5 0L t6;
    ]
  in
  let m, _ = Helpers.machine_with ~config prog in
  Machine.run ~max_instrs:1_000_000L m;
  Helpers.check_i64 "hart1 got MSI" (Int64.logor (Int64.shift_left 1L 63) 3L)
    (result m)

let test_mcycle_increments () =
  let m =
    run ([ csrr a0 C.mcycle; csrr a1 C.mcycle; sub a2 a1 a0 ]
         @ store_result a2 @ poweroff)
  in
  Alcotest.(check bool) "cycles advance" true (result m >= 1L)

let () =
  Alcotest.run "machine"
    [
      ( "machine",
        [
          Alcotest.test_case "arithmetic loop" `Quick test_arithmetic_loop;
          Alcotest.test_case "memory ops" `Quick test_memory_ops;
          Alcotest.test_case "ecall to mtvec" `Quick test_ecall_to_mtvec;
          Alcotest.test_case "mret to U + illegal" `Quick
            test_mret_to_umode_and_illegal;
          Alcotest.test_case "medeleg to S" `Quick test_medeleg_routes_to_smode;
          Alcotest.test_case "timer interrupt" `Quick test_timer_interrupt;
          Alcotest.test_case "software interrupt" `Quick
            test_software_interrupt_ipi;
          Alcotest.test_case "pmp denies U" `Quick test_pmp_denies_umode;
          Alcotest.test_case "misaligned traps" `Quick
            test_misaligned_load_traps;
          Alcotest.test_case "time CSR traps" `Quick
            test_time_csr_traps_without_counter;
          Alcotest.test_case "time CSR reads" `Quick
            test_time_csr_reads_with_counter;
          Alcotest.test_case "uart" `Quick test_uart_output;
          Alcotest.test_case "wfi wake" `Quick
            test_wfi_wakes_on_pending_disabled;
          Alcotest.test_case "sret to U" `Quick test_sret_returns_to_umode;
          Alcotest.test_case "multihart ipi" `Quick test_multihart_ipi;
          Alcotest.test_case "mcycle" `Quick test_mcycle_increments;
        ] );
    ]
