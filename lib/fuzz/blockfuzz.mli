(** The blocks family: generated guest programs — pure-ALU runs, tight
    loops, mid-block traps, self-modifying stores, vm-epoch-bumping CSR
    writes, fence.i — executed by the decoded basic-block engine
    against the per-instruction interpreter in lockstep, via
    {!Mir_verif.Blockdiff}. Vectors carry the [blockdiff] header;
    divergences shrink by segment truncation and NOP substitution. *)

include Difftest.S with type case = Mir_verif.Blockdiff.case

val gen_case : Mir_util.Prng.t -> Mir_verif.Blockdiff.case
(** One generated case (exposed for the engine tests). *)
