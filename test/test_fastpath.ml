(* Exact gates on the simulator's fast paths.

   A fixed step count of the Linux-boot-shaped Sv39 guest that
   perfbench's guest-sv39 workload times (Sv39 on, compute between
   timer, misaligned-access, wfi and console traps, satp rewritten once
   per loop) on a 1-hart VisionFive 2 under Miralis. Hit rates and
   minor words per step are functions of the code alone, so unlike an
   instrs/sec floor they repeat on any host. Each gate fails when its
   fast path collapses: with the block engine off the block hit rate
   reads 0; with the TLB off (tlb_entries = 0) the TLB ratio reads 0
   and allocation ~175 words/step. The second case runs the same guest
   with the block engine off and gates the interpreter's allocation:
   each decoded word carries its compiled op, so an interpreted step
   compiles nothing (~9.65 words/step; compiling the op on every step
   reads ~17.6). The interpreter allocates less per step than the
   engine (~9.80), so only the block hit rate gate catches an engine
   that is switched off. *)

module Setup = Mir_harness.Setup
module Machine = Mir_rv.Machine
module Platform = Mir_platform.Platform
module Script = Mir_kernel.Script

let steps = 1_048_576

(* Run the guest for [steps] steps; returns the steps retired, the
   block hit rate, the TLB hit ratio and minor words per step. *)
let run_guest ~block_engine =
  let p = Platform.visionfive2 in
  let p =
    { p with Platform.machine = { p.Platform.machine with Machine.nharts = 1 } }
  in
  let sys = Setup.create p Setup.Virtualized in
  let m = sys.Setup.machine in
  Machine.set_block_engine m block_engine;
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
    "%d steps, block engine %s: block hit rate %.5f, TLB hit ratio %.5f, \
     %.2f minor words/step\n"
    retired
    (if block_engine then "on" else "off")
    block tlb per_step;
  (retired, block, tlb, per_step)

let gate checks =
  let failed =
    List.filter_map (fun (ok, gate) -> if ok then None else Some gate) checks
  in
  if failed <> [] then Alcotest.fail (String.concat "; " failed)

let retired_gate retired =
  (retired >= steps, Printf.sprintf "retired %d < %d steps" retired steps)

let words_gate per_step =
  (per_step <= 11., Printf.sprintf "%.2f minor words/step > 11" per_step)

let test_sv39_gates () =
  let retired, block, tlb, per_step = run_guest ~block_engine:true in
  gate
    [
      retired_gate retired;
      (block >= 0.99, Printf.sprintf "block hit rate %.5f < 0.99" block);
      (tlb >= 0.99, Printf.sprintf "TLB hit ratio %.5f < 0.99" tlb);
      words_gate per_step;
    ]

let test_interp_allocation () =
  let retired, _, _, per_step = run_guest ~block_engine:false in
  gate [ retired_gate retired; words_gate per_step ]

let () =
  Alcotest.run "fastpath"
    [
      ( "gates",
        [
          Alcotest.test_case "sv39 guest: blocks, TLB, allocation" `Quick
            test_sv39_gates;
          Alcotest.test_case "sv39 guest, engine off: allocation" `Quick
            test_interp_allocation;
        ] );
    ]
