(** Fuzz inputs of the ISA family: self-contained, replayable test
    vectors.

    An input is a state seed — the initial architectural sample is
    regenerated deterministically from it, keeping vectors small —
    plus a stream of operations: privileged instructions interleaved
    with interrupt-line changes. Serialized as JSONL (a header line
    then one line per operation, instructions as their 32-bit
    encodings), which is the on-disk corpus and the checked-in
    conformance-vector format. *)

type op =
  | Op_instr of Mir_rv.Instr.t  (** one privileged instruction *)
  | Op_lines of { mtip : bool; msip : bool; meip : bool }
      (** drive the timer/software interrupt lines *)

type t = { seed : int64; ops : op list }

val length : t -> int
val pp : Format.formatter -> t -> unit

val to_jsonl : t -> string
(** [{"fuzz":1,"seed":…}] header, then one line per operation. *)

val op_of_fields : (string * string) list -> (op, string) result
(** One parsed operation line. *)

val of_fields : (string * string) list -> op list -> (t, string) result
(** An input from its parsed header and its operations. *)
