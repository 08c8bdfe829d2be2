(** Differential oracle for the decoded basic-block engine: one
    machine consuming steps through [Machine.step_blocks] against an
    identical machine stepped by the per-instruction interpreter, in
    lockstep segments over the same generated guest program.  The
    engine's contract is bit-exactness at every step boundary, so
    after each segment the complete architectural state must agree,
    and the final RAM images (including self-modified code) must hash
    identically. *)

type case = {
  seed : int64;  (** seeds registers and the data page *)
  words : int array;  (** instruction encodings, loaded at the code base *)
  segs : int array;  (** lockstep segment budgets, in machine steps *)
}

val pp_case : Format.formatter -> case -> unit

val max_words : int
(** Code-window capacity in instruction slots (256). *)

type divergence = {
  seg_index : int;  (** -1 when the final RAM hashes disagree *)
  field : string;  (** which architectural field disagreed *)
  blocks_state : string;
  interp_state : string;
}

type seg_view = {
  steps : int;  (** steps consumed this segment *)
  priv : Mir_rv.Priv.t;
  cause : int64;  (** raw mcause after the segment *)
  region : int;  (** pc: 0 = code window, 1 = elsewhere in RAM, 2 = outside *)
  wfi : bool;
}
(** Block-side summary after a segment, for coverage accounting. *)

val run_case :
  ?on_segment:(int -> seg_view -> unit) -> case -> divergence option
(** Run one case on a freshly built pair of machines; returns the
    first divergence (None = the engine matched the interpreter at
    every segment boundary and in final RAM). *)
