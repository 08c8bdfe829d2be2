(* Exact gates on the simulator's fast paths.

   A fixed step count of the Linux-boot-shaped Sv39 guest that
   perfbench's guest-sv39 workload times (Sv39 on, compute between
   timer, misaligned-access, wfi and console traps, satp rewritten once
   per loop) on a 1-hart VisionFive 2 under Miralis. Hit rates and
   minor words per step are functions of the code alone, so unlike an
   instrs/sec floor they repeat on any host. Each gate fails when its
   fast path collapses: with the block engine off the block hit rate
   reads 0 and allocation rises to ~14 words/step; with the TLB off
   (tlb_entries = 0) the TLB ratio reads 0 and allocation ~179. *)

module Setup = Mir_harness.Setup
module Machine = Mir_rv.Machine
module Platform = Mir_platform.Platform
module Script = Mir_kernel.Script

let steps = 1_048_576

let test_sv39_gates () =
  let p = Platform.visionfive2 in
  let p =
    { p with Platform.machine = { p.Platform.machine with Machine.nharts = 1 } }
  in
  let sys = Setup.create p Setup.Virtualized in
  let m = sys.Setup.machine in
  let script =
    Script.
      [
        Enable_paging (Mir_kernel.Paging.identity_satp m); Compute 3000L;
        Rdtime; Set_timer 400L; Misaligned_load; Compute 3000L;
        Misaligned_store; Tick_wfi 150L; Putchar '.'; Loop 1_000_000_000L;
        End;
      ]
  in
  let s0 = m.Machine.instr_count in
  let w0 = Gc.minor_words () in
  Setup.run_scripts ~max_instrs:(Int64.of_int steps) sys [ script ];
  let words = Gc.minor_words () -. w0 in
  let retired = m.Machine.instr_count - s0 in
  let hits, misses, _ = Machine.tlb_totals m in
  let tlb =
    if hits + misses = 0 then 0.
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let block = Machine.block_hit_rate m in
  let per_step = words /. float_of_int retired in
  Printf.printf
    "%d steps: block hit rate %.5f, TLB hit ratio %.5f, %.2f minor \
     words/step\n"
    retired block tlb per_step;
  let failed =
    List.filter_map
      (fun (ok, gate) -> if ok then None else Some gate)
      [
        (retired >= steps, Printf.sprintf "retired %d < %d steps" retired steps);
        (block >= 0.99, Printf.sprintf "block hit rate %.5f < 0.99" block);
        (tlb >= 0.99, Printf.sprintf "TLB hit ratio %.5f < 0.99" tlb);
        ( per_step <= 11.,
          Printf.sprintf "%.2f minor words/step > 11" per_step );
      ]
  in
  if failed <> [] then Alcotest.fail (String.concat "; " failed)

let () =
  Alcotest.run "fastpath"
    [
      ( "gates",
        [ Alcotest.test_case "sv39 guest: blocks, TLB, allocation" `Quick
            test_sv39_gates ] );
    ]
