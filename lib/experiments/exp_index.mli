(** The experiment table: every paper table and figure by name, in
    evaluation order. [bench] and [miralis_sim experiments] both run
    from it. *)

val all : (string * (unit -> unit)) list

val select : (string * 'a) list -> string list -> ('a list, string) result
(** [select table names] looks every name up in [table], in order; no
    names select the whole table. [Error] names the first unknown name
    and lists the known ones. *)
