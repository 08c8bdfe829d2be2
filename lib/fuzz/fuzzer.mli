(** The ISA family: coverage-guided differential fuzzing of the VFM
    emulator against the reference machine over privileged-instruction
    streams ({!Input}, {!Exec}), with corpus mutation ({!Gen}) and
    ddmin shrinking ({!Shrink}). Vectors carry the [fuzz] header;
    [--inject-bug] plants a §6.5 emulator bug class. *)

include Difftest.S with type case = Input.t
