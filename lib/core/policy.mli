(** Policy modules (paper §5.1).

    An isolation policy complements or overrides Miralis's handling at
    seven points: ecall, trap, and world switch from the firmware;
    the same three from the OS; and interrupts. Policies can also
    claim PMP entries with *higher* priority than the virtual PMPs to
    protect memory from both the OS and the firmware.

    A policy that returns [Handled] has fully disposed of the event
    (typically via the {!ctx} helpers) and Miralis performs no further
    handling for it; [Pass] defers to the default behaviour. *)

type decision = Pass | Handled

(** The context handed to every hook. Policies may manipulate the
    hart directly; the closures are provided by the Miralis core. *)
type ctx = {
  machine : Mir_rv.Machine.t;
  hart : Mir_rv.Hart.t;
  vhart : Vhart.t;
  config : Config.t;
  stats : Vfm_stats.t;
      (** the monitor's counters, so policies can account their own
          world switches (e.g. ACE steals/returns) *)
  report_violation : string -> unit;
      (** record a policy violation and stop the machine (§5.2) *)
  reinstall_pmp : unit -> unit;
      (** re-derive the current hart's physical PMP (after the policy
          changed entries only this hart observes, e.g. its own
          enclave entering or leaving execution) *)
  reinstall_pmp_all : unit -> unit;
      (** re-derive every hart's physical PMP. Required whenever the
          policy's entry list changes for sibling harts too (enclave
          create/destroy): a per-hart reinstall would leave siblings
          enforcing the stale entries until their own next trap. *)
  return_to_os : pc:int64 -> unit;
      (** resume direct execution at [pc] in the interrupted privilege
          (a physical mret) *)
}

type t = {
  name : string;
  on_ecall_from_os : ctx -> decision;
  on_trap_from_os : ctx -> Mir_rv.Cause.exc -> decision;
      (** an OS exception other than an ecall that the offload fast
          path did not handle; [Pass] re-injects it into the
          firmware *)
  on_switch_to_fw : ctx -> unit;
  on_ecall_from_fw : ctx -> decision;
  on_trap_from_fw : ctx -> Mir_rv.Cause.exc -> decision;
      (** a firmware exception the monitor does not emulate itself;
          [Pass] re-injects it into the firmware *)
  on_switch_to_os : ctx -> unit;
  on_interrupt : ctx -> Mir_rv.Cause.intr -> decision;
  pmp_entries : ctx -> Mir_rv.Pmp.entry list;
}

val default : string -> t
(** A policy with every hook passing and no PMP entries. *)

val sbi_args : ctx -> int64 * int64
(** (extension id, function id) = (a7, a6) of the current ecall. *)

val sbi_return : ctx -> err:int64 -> value:int64 -> unit
(** Complete an SBI call: set a0/a1 and resume the OS after the
    ecall. *)
