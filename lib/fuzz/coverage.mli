(** Edge-coverage map shared by every differential-testing family:
    hit counts per edge index with AFL-style bucketing, driving corpus
    growth and, for the ISA family, mutation scheduling. *)

type t

val size : int
(** Number of buckets in the map. *)

val create : unit -> t

val edge : cls:int -> tag:int -> cause:int -> int
(** Stable index of the (instruction class, outcome tag, cause) edge. *)

val add : t -> int -> bool
(** Record a hit; [true] iff the edge is new or its count crossed a
    power-of-two-ish bucket — the "interesting input" signal. *)

val edges : t -> int
(** Number of distinct edges seen (nonzero buckets). *)

val total : t -> int
val equal : t -> t -> bool

val to_string : t -> string
val of_string : string -> (t, string) result
(** Exact inverse of {!to_string}. *)
