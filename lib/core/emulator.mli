(** The privileged-instruction emulator — the [vfm : S × I_p → S]
    function of the paper's Definition 1.

    When the deprivileged firmware executes a privileged instruction it
    traps (illegal instruction in U-mode) and lands here. The emulator
    applies the instruction's architectural semantics to the *virtual*
    CSR file, exactly as the reference machine would apply them to
    physical state in M-mode. {!Mir_verif.Faithful_emulation} checks
    this equivalence by exhaustive enumeration.

    The emulator is written against an abstract context (register
    accessors and counter values) so the verifier can drive it on
    synthetic states without a machine. *)

type ctx = {
  read_gpr : int -> int64;
  write_gpr : int -> int64 -> unit;
  pc : int64;  (** virtual PC of the trapping instruction *)
  cycles : int64;  (** hart cycle counter (mcycle) *)
  instret : int64;
  phys_custom_read : int -> int64;
      (** pass-through reads of allowed platform CSRs *)
  phys_custom_write : int -> int64 -> unit;
}

(** What the VFM must do after emulating one instruction. *)
type action =
  | Next  (** resume the firmware at pc+4 *)
  | Jump of int64  (** resume the firmware elsewhere (mret to vM) *)
  | Exit_to_os of { pc : int64; priv : Mir_rv.Priv.t }
      (** world switch: mret/sret left virtual M-mode *)
  | Vtrap of Mir_rv.Cause.exc * int64
      (** inject a trap into the virtual firmware *)
  | Wfi  (** firmware waits for a virtual interrupt *)
  | Unsupported  (** not a privileged instruction: VFM bug *)

type outcome = {
  action : action;
  pmp_dirty : bool;
      (** a vPMP register or mstatus.MPRV changed: the physical PMP
          must be reinstalled *)
}

val intr_priority_buggy : Mir_rv.Cause.intr list
(** {!Mir_rv.Cause.priority} with MSI before MEI — the
    Interrupt_priority_swapped injected bug. *)

(** The emulator's pure state transforms over an abstract bitvector
    domain; [emulate] runs the concrete instantiation, the
    faithful-emulation prover ({!Mir_verif.Prove}) the symbolic one. *)
module Sem (B : Mir_util.Bits_sig.S) : sig
  val csr_rmw : Mir_rv.Instr.csr_op -> old:B.t -> src:B.t -> B.t
  val mret_mstatus : ?skip_mpie:bool -> B.t -> B.t
  val mret_target_priv : B.t -> Mir_rv.Priv.t
  val sret_mstatus : B.t -> B.t
  val sret_target_priv : B.t -> Mir_rv.Priv.t

  val mstatus_write_no_legalize : old:B.t -> value:B.t -> B.t
  (** The Mpp_not_legalized bug: mask-merge, skipping WARL. *)

  val virtual_interrupt :
    order:Mir_rv.Cause.intr list ->
    world:Vhart.world ->
    mstatus:B.t ->
    mip:B.t ->
    mie:B.t ->
    mideleg:B.t ->
    Mir_rv.Cause.intr option
  (** The virtual-interrupt injection decision (paper §4.1). *)
end

val emulate :
  Config.t -> Vhart.t -> ctx -> bits:int -> Mir_rv.Instr.t -> outcome
(** Emulate one privileged instruction against the virtual state.
    [bits] is the raw encoding (for the mtval of injected illegal
    instruction traps). *)

val check_virtual_interrupt :
  Config.t -> Vhart.t -> Mir_rv.Cause.intr option
(** The virtual-interrupt injection decision (paper §4.1): a virtual
    M-level interrupt must be injected if it is pending and enabled —
    evaluated after each emulation since traps and privileged
    instructions can mask or unmask interrupts. The caller must first
    sync the virtual mip's M-level bits from the virtual CLINT. *)

val vtrap_entry :
  Vhart.t ->
  Mir_rv.Cause.t ->
  tval:int64 ->
  epc:int64 ->
  mpp:Mir_rv.Priv.t ->
  int64
(** Deliver a trap to the virtual firmware's CSRs as hardware would
    from privilege [mpp]: mepc, mcause and mtval are set, mstatus goes
    through {!Mir_rv.Hart.Xfer_c.trap_entry_m}, and the result is the
    handler pc {!Mir_rv.Cause.tvec_target} derives from the virtual
    mtvec. *)

val load_store :
  Mir_rv.Hart.t ->
  Mir_rv.Instr.t ->
  access:(size:int -> write:int64 option -> (int64, 'fault) result) ->
  (unit, 'fault) result option
(** Perform a trapped load or store on a guest's behalf. [access]
    performs the access of [size] bytes ([write] carries the value of
    a store) and returns the loaded value or the fault to report. A
    load's value is extended by the instruction's width and signedness
    into rd. [None] when the instruction is neither a load nor a
    store. *)
