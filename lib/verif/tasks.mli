(** The verification tasks: the rows of the paper's Table 2.

    Each row is checked by exactly one engine. The rows the symbolic
    prover reaches ({!Prove}: mret, sret, CSR read, CSR write, virtual
    interrupt) are proved over all states. The others are sampled:
    wfi/fence/ecall/ebreak and end-to-end emulation run the isa fuzz
    family's stream engine ({!Diff.stream_step}) over seeded
    adversarial states, the decoder is round-tripped and fed random
    words, and PMP faithful execution samples vPMP configurations
    ({!Faithful_execution}). *)

type method_ =
  | Symbolic  (** every path explored by {!Prove} *)
  | Sampled  (** seeded state samples *)

type report = {
  name : string;
  method_ : method_;
  cases : int;  (** sampled cases, or explored symbolic paths *)
  skipped : int;
      (** sampled cases the PMP blocked, or unexplored symbolic paths *)
  mismatches : int;
  first_counterexample : string option;
  seconds : float;
}

val passed : report -> bool
(** No mismatch, and a proof left no path unexplored. *)

val method_label : report -> string
(** ["proved"], ["UNPROVED"] or ["sampled"]: Table 2's Method column. *)

val pp_report : Format.formatter -> report -> unit

(** The sampled rows, each over its own seeded stream. *)

val wfi :
  samples:int -> ?inject_bug:Miralis.Config.bug -> ?seed:int64 -> unit ->
  report
(** wfi, sfence.vma, ecall and ebreak, each against [samples] states. *)

val decoder : words:int -> ?seed:int64 -> unit -> report
(** Round-trip over the privileged encoding space, then totality over
    [words] random words. *)

val end_to_end :
  samples:int -> ?inject_bug:Miralis.Config.bug -> ?seed:int64 -> unit ->
  report
(** The real CSR dispatch at all 4,096 addresses, plus the other
    privileged instructions, each against [samples] states. *)

val all :
  ?quick:bool -> ?inject_bug:Miralis.Config.bug -> ?seed:int64 -> unit ->
  report list
(** Every row, in Table 2 order. [quick] divides the sample counts by
    ten and restricts the CSR proofs to the implemented addresses plus
    the interesting unimplemented corners. *)
