(** Grammar-based generation and mutation of fuzz inputs.

    Instruction streams are drawn from a weighted privileged-ISA
    grammar (CSR traffic over trap/delegation/PMP/translation state,
    xRET, WFI, environment traps, SFENCE, interrupt-line changes); the
    mutator applies grammar-level havoc plus corpus splicing. All
    randomness flows from the provided PRNG, so a campaign is a pure
    function of the root seed. *)

val fresh : Miralis.Config.t -> Mir_util.Prng.t -> len:int -> Input.t

val mutate :
  Miralis.Config.t -> Mir_util.Prng.t -> corpus:Input.t array -> Input.t ->
  Input.t
