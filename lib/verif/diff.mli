(** The differential checker behind faithful emulation (Definition 1).

    One side is the reference machine — the executable ISA
    specification, instantiated with the *virtual* configuration
    [c_r] and executing the instruction natively in M-mode. The other
    side is Miralis's emulator operating on a virtual hart. Both start
    from the same sampled architectural state; the checker demands
    bit-identical post-states (CSRs, registers, pc, privilege, wfi),
    with traps compared through the common hardware trap-entry
    transform.

    Every check runs through {!stream_step}: the isa fuzz family
    steps whole instruction streams, and the sampled wfi and
    end-to-end rows of Table 2 ({!Tasks}) step one instruction per
    sampled state (boundary patterns plus seeded-random values). The
    rows the symbolic prover covers ({!Prove}) are not sampled. *)

type t

val create : ?inject_bug:Miralis.Config.bug -> ?seed:int64 -> unit -> t
(** A checker instance: a one-hart reference machine configured with
    the virtual configuration, plus a virtual hart. [seed] roots all
    sampling randomness (default {!Miralis.Config.default_seed}). *)

val config : t -> Miralis.Config.t

(** One sampled machine state. *)
type sample

val gen_sample : t -> Mir_util.Prng.t -> sample
(** Draw a state: every implemented CSR gets a boundary or random
    value (legalized through the shared WARL spec so both sides can
    hold it), the registers are random, and the timer/software
    interrupt lines are sampled booleans. mstatus.MIE is forced clear
    so the reference machine executes the instruction rather than
    taking an interrupt. *)

(** Result of one stream step. *)
type verdict =
  | Agree
  | Skip  (** the sampled PMP forbids the reference fetch *)
  | Disagree of string

(** {2 Stream execution — the fuzzer's engine}

    A stream runs a whole instruction sequence against ONE evolving
    architectural state: CSR effects accumulate across steps, which is
    where sequence-dependent bugs (PMP reconfiguration, delegation
    flips, MPIE shuffles) live. Each step re-arms pc/privilege/world —
    the firmware handler executes one privileged instruction at a time
    from a fixed address — while all other state flows on. The oracle
    is the {!Mir_trace.Tracer.digest_values} digest over pc, priv,
    wfi, x1..x31 and {e every} implemented CSR, computed with the
    identical function on both sides. *)

(** How a stream step resolved — the trap-cause coordinate of the
    fuzzer's coverage edges. *)
type outcome =
  | O_next  (** plain fall-through emulation *)
  | O_jump  (** mret back into vM-mode *)
  | O_exit_os  (** world switch out of virtual M-mode *)
  | O_vtrap of Mir_rv.Cause.exc  (** trap injected into the firmware *)
  | O_wfi
  | O_irq of Mir_rv.Cause.intr  (** a virtual interrupt preempted the step *)
  | O_skip  (** the sampled PMP blocks the reference fetch *)

type step = { verdict : verdict; outcome : outcome }

val outcome_tag : outcome -> int
(** Small-int class of the outcome (0..6), stable across runs. *)

val outcome_cause : outcome -> int
(** Exception/interrupt code of trap outcomes, 0 otherwise. *)

val stream_begin : t -> sample -> unit
(** Load the sampled initial state into both sides. *)

val stream_step : t -> Mir_rv.Instr.t -> step
(** Execute one instruction on the evolving stream state: the
    reference machine steps for real (interrupt delivery included),
    the emulator runs on the virtual hart, and the post-state digests
    must agree. *)

val set_lines : t -> mtip:bool -> msip:bool -> meip:bool -> unit
(** Drive the timer/software/external interrupt lines mid-stream
    (CLINT, PLIC and both raw mip copies stay consistent). *)
