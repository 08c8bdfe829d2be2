(** The virtual firmware monitor core (paper §4).

    Miralis conceptually executes in M-mode with interrupts disabled
    and trap handlers that run to completion. It hooks the simulated
    machine's M-mode trap entry: every trap that architecturally
    targets M-mode is dispatched here. Traps from the virtual firmware
    (vM-mode, physically U) are emulated against the shadow CSRs;
    traps from the OS are either handled on the fast path, or
    re-injected into the virtual firmware after a world switch. After
    each trap Miralis checks for pending virtual interrupts and for a
    world switch, then resumes the hart. *)

type t = {
  config : Config.t;
  machine : Mir_rv.Machine.t;
  vharts : Vhart.t array;
  vclint : Vclint.t;
  vplic : Vplic.t;  (** experimental virtual PLIC (enabled via config) *)
  mutable policy : Policy.t;
  stats : Vfm_stats.t;
  mutable violation : string option;
      (** set when a policy stopped the machine *)
  mutable tracer : Mir_trace.Tracer.t option;
      (** when set, world switches, PMP reinstalls, virtual traps and
          SBI calls are emitted into the trace stream *)
}

val create : ?policy:Policy.t -> Config.t -> Mir_rv.Machine.t -> t
(** Build the VFM and install it as the machine's M-mode trap hook. *)

val boot : t -> fw_entry:int64 -> unit
(** Start every hart in vM-mode at the firmware entry point with the
    OpenSBI boot convention (a0 = hartid, a1 = devicetree, here 0).
    Installs the firmware-world PMP and well-defined physical CSRs. *)

val policy_ctx : t -> Mir_rv.Hart.t -> Policy.ctx
(** The context handed to policy hooks (also used by policies that
    need to act outside a hook, e.g. at boot). *)

val reinstall_pmp : t -> Mir_rv.Hart.t -> unit
(** Re-derive and install the physical PMP of one hart. *)

val reinstall_pmp_all : t -> Mir_rv.Hart.t -> unit
(** Re-derive every hart's physical PMP ([hart] is the one acting, and
    is reinstalled inline; siblings follow in the same step, or
    {!Mir_rv.Machine.race_window} steps late under the
    Pmp_handoff_window injected bug). *)

val enter_firmware : t -> Mir_rv.Hart.t -> pc:int64 -> unit
(** Resume a hart in vM-mode at [pc]. *)

val return_to_os : t -> Mir_rv.Hart.t -> pc:int64 -> unit
(** Resume direct execution at [pc] (physical mret semantics). *)

val inject_vtrap :
  t -> Mir_rv.Hart.t -> Vhart.t -> Mir_rv.Cause.t -> tval:int64 ->
  epc:int64 -> mpp:Mir_rv.Priv.t -> unit
(** Deliver a trap to the virtual firmware: virtual trap CSRs are set
    as hardware would and the hart resumes at the virtual [mtvec]. If
    the hart was executing the OS, callers must world-switch first. *)

val switch_to_fw : t -> Mir_rv.Hart.t -> Vhart.t -> unit
val switch_to_os : t -> Mir_rv.Hart.t -> Vhart.t -> unit
(** World switches including policy hooks and statistics. *)

val save : t -> unit -> unit
(** Snapshot all monitor state (virtual harts, vCLINT, vPLIC, stats)
    and return the restore closure — pass as the [extra_save] of
    [Mir_trace.Snapshot.manage]. *)
