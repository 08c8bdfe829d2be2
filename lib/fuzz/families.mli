(** The registry of differential-testing families ({!Difftest.S}):
    isa ({!Fuzzer}), paging ({!Pgfuzz}), blocks ({!Blockfuzz}) and ace
    ({!Acefuzz}). Vector replay and emission go over this list. *)

val all : Difftest.family list
val find : string -> Difftest.family option
(** By [--family] name. *)
