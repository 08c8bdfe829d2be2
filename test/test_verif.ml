(* Verification-harness tests: every Table 2 row passes on the real
   implementation — the five rows the symbolic prover reaches are
   proved, the others are sampled clean — and, crucially, each injected
   bug class from the paper's §6.5 is refuted with a counterexample. *)

module Tasks = Mir_verif.Tasks
module Prove = Mir_verif.Prove
module Config = Miralis.Config

(* A proof explored every path and none diverged. *)
let proved r =
  Alcotest.(check bool) (r.Prove.name ^ " proved") true (Prove.proved r);
  Alcotest.(check bool)
    (r.Prove.name ^ " explored paths")
    true (r.Prove.paths > 0)

(* A sampled row ran cases and found no mismatch. *)
let clean r =
  Alcotest.(check int) (r.Tasks.name ^ " clean") 0 r.Tasks.mismatches;
  Alcotest.(check bool)
    (r.Tasks.name ^ " ran cases")
    true (r.Tasks.cases > 0)

(* An injected bug must surface as a refuted path carrying a concrete
   counterexample state. *)
let refuted r =
  Alcotest.(check bool)
    (r.Prove.name ^ " refutes the injected bug")
    true (r.Prove.mismatches > 0);
  Alcotest.(check bool)
    (r.Prove.name ^ " names a counterexample")
    true (r.Prove.first_counterexample <> None)

let test_mret_clean () = proved (Prove.mret ~quick:true ())
let test_sret_clean () = proved (Prove.sret ~quick:true ())
let test_wfi_clean () = clean (Tasks.wfi ~samples:400 ())
let test_decoder_clean () = clean (Tasks.decoder ~words:50_000 ())
let test_csr_read_clean () = proved (Prove.csr_read ~quick:true ())
let test_csr_write_clean () = proved (Prove.csr_write ~quick:true ())
let test_virtual_interrupt_clean () =
  proved (Prove.virtual_interrupt ~quick:true ())
let test_end_to_end_clean () = clean (Tasks.end_to_end ~samples:4 ())

let test_pmp_clean () =
  let cases, _, mismatches, _ =
    Mir_verif.Faithful_execution.run ~configs:60 ()
  in
  Alcotest.(check int) "PMP faithful execution clean" 0 mismatches;
  Alcotest.(check bool) "PMP faithful execution ran cases" true (cases > 0)

(* Each §6.5 bug class must be refuted by the proof of its row. *)
let test_bug_mpp () =
  refuted
    (Prove.csr_write ~quick:true ~inject_bug:Config.Mpp_not_legalized ())

let test_bug_pmp_wr () =
  refuted (Prove.csr_write ~quick:true ~inject_bug:Config.Pmp_w_without_r ())

let test_bug_vpmp_overrun () =
  refuted (Prove.csr_write ~quick:true ~inject_bug:Config.Vpmp_overrun ())

let test_bug_interrupt_priority () =
  refuted
    (Prove.virtual_interrupt ~quick:true
       ~inject_bug:Config.Interrupt_priority_swapped ())

let test_bug_mret_mpie () =
  refuted (Prove.mret ~quick:true ~inject_bug:Config.Mret_skips_mpie ())

(* The Vpmp_overrun bug is also a *memory protection* hole: the extra
   entry displaces the physical catch-all. The faithful-execution
   checker must see it too. *)
let test_bug_vpmp_overrun_execution () =
  let _, _, mismatches, _ =
    Mir_verif.Faithful_execution.run ~configs:60
      ~inject_bug:Config.Vpmp_overrun ()
  in
  Alcotest.(check bool)
    "PMP faithful execution detects it" true (mismatches > 0)

(* At seed 8 no sampled state exposes MPP=0b10 (end-to-end emulation
   reads 0 mismatches there); the proof rows do not depend on the seed,
   so the task list still detects the bug. *)
let test_bug_mpp_seed8 () =
  let reports =
    Tasks.all ~quick:true ~seed:8L ~inject_bug:Config.Mpp_not_legalized ()
  in
  Alcotest.(check bool)
    "some row reports a mismatch" true
    (List.exists (fun r -> r.Tasks.mismatches > 0) reports)

let () =
  Alcotest.run "verif"
    [
      ( "faithful-emulation",
        [
          Alcotest.test_case "mret" `Quick test_mret_clean;
          Alcotest.test_case "sret" `Quick test_sret_clean;
          Alcotest.test_case "wfi/fence/ecall" `Quick test_wfi_clean;
          Alcotest.test_case "decoder" `Quick test_decoder_clean;
          Alcotest.test_case "csr read" `Quick test_csr_read_clean;
          Alcotest.test_case "csr write" `Quick test_csr_write_clean;
          Alcotest.test_case "virtual interrupt" `Quick
            test_virtual_interrupt_clean;
          Alcotest.test_case "end to end" `Quick test_end_to_end_clean;
        ] );
      ( "faithful-execution",
        [ Alcotest.test_case "pmp multiplexing" `Quick test_pmp_clean ] );
      ( "bug-injection",
        [
          Alcotest.test_case "MPP not legalized" `Quick test_bug_mpp;
          Alcotest.test_case "PMP W without R" `Quick test_bug_pmp_wr;
          Alcotest.test_case "vPMP overrun" `Quick test_bug_vpmp_overrun;
          Alcotest.test_case "interrupt priority" `Quick
            test_bug_interrupt_priority;
          Alcotest.test_case "mret skips MPIE" `Quick test_bug_mret_mpie;
          Alcotest.test_case "vPMP overrun (execution)" `Quick
            test_bug_vpmp_overrun_execution;
          Alcotest.test_case "MPP not legalized at seed 8" `Quick
            test_bug_mpp_seed8;
        ] );
    ]
