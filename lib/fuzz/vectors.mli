(** Hand-designed privileged-ISA conformance vectors: PMP
    reconfiguration, delegation flips, xRET MPP/MPIE dances, WFI vs
    interrupt lines, out-of-range vPMP probes, unimplemented CSRs. *)

val builtin : (string * Input.t) list
(** Named vectors: the ISA family's builtins ({!Fuzzer}). *)
