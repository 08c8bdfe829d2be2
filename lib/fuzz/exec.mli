(** The differential executor: runs one fuzz input simultaneously
    through the reference machine (the executable ISA spec under the
    virtual configuration) and the VFM emulator, comparing the
    post-state digests after every operation. *)

type t

val create :
  ?inject_bug:Miralis.Config.bug -> ?seed:int64 -> unit -> t
(** [seed] roots the configuration (and so the derived PRNG streams);
    [inject_bug] plants one of the §6.5 emulator bug classes, used by
    the tests to prove the fuzzer catches and shrinks real bugs. *)

val config : t -> Miralis.Config.t

val run : ?edge:(int -> unit) -> t -> Input.t -> (int * string) option
(** Execute the input from its regenerated initial state, passing each
    op's (op class x outcome x cause) coverage edge to [edge]. Stops at
    the first divergence: [Some (op index, named mismatch)]. *)

val diverges : t -> Input.t -> bool
