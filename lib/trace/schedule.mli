(** Replayable schedule artifacts for the interleaving explorer.

    A schedule is the run-length encoding of a pick sequence — the
    (global step, hart) switch points of one explorer run. Replayed
    against the same scenario and seed it reproduces the exact
    interleaving, so a failing schedule checked into [test/schedules/]
    is a deterministic repro, the same way a PR 2 conformance vector
    is. Serialized as JSONL: one meta line, then one line per
    switch. *)

type t = {
  scenario : string;  (** scenario name (lib/explore/scenario.ml) *)
  bug : string option;  (** injected race bug, by CLI name *)
  seed : int64;  (** campaign seed the scenario was built with *)
  nharts : int;
  steps : int;  (** step budget that reproduces the violation *)
  oracle : string;  (** violated oracle name; [""] when none *)
  switches : (int * int) list;  (** (global step, hart), ascending *)
}

val preemption_points : t -> int
(** Number of switch points excluding the initial pick. *)

val save : t -> path:string -> unit
val load : path:string -> (t, string) result
(** Inverse of {!save}. Never raises: [Error] is a ["file:line: reason"]
    diagnostic, or the system's message naming the file when it cannot
    be read. *)
