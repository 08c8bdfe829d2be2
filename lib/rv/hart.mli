(** Architectural state of one hart (hardware thread).

    The general-purpose registers, program counter, privilege level and
    CSR file. Cycle and retired-instruction counters are kept here so
    the cost model (and the VFM, which charges emulation cycles) can
    account time per hart. *)

type t = {
  id : int;
  mutable pc : int64;
  regs : Bytes.t;
      (** 32 little-endian int64 slots (flat, unboxed); access through
          {!get}/{!set} — x0 is forced to zero and never stored to *)
  csr : Csr_file.t;
  tlb : Tlb.t;  (** per-hart software TLB + fetch-page cache *)
  mutable priv : Priv.t;
  mutable wfi : bool;  (** stalled in [wfi] *)
  mutable cycles : int;
  mutable instret : int;
      (** plain [int] counters: 63 bits outlast any simulation, and
          unboxed read-modify-write keeps the per-instruction cost to
          one store (a boxed [int64] would allocate on every
          retire) *)
  mutable irq_stale : int;  (** steps since the interrupt lines were
                                refreshed (machine-internal) *)
  mutable reservation : int64 option;
      (** LR/SC reservation (physical address), cleared by stores and
          traps *)
  mutable just_trapped : bool;
      (** set by trap entry, cleared when the hart next steps: "this
          hart's last completed step ended in a trap and it has not run
          since". The schedule explorer reads it to flag trap-entry
          points as preemption-interesting; the machine uses it to
          model mid-emulation preemption windows for injected race
          bugs. *)
  mutable bpc : int64;
      (** entry pc of the decoded block being executed (the
          instruction's own pc when the interpreter applies one op),
          read by pc-relative ops while the block executor leaves
          [pc] unwritten across pure runs. Scratch for [Machine]'s
          ops; never snapshotted or hashed. *)
}

val create : ?tlb_entries:int -> Csr_spec.config -> id:int -> t
(** [tlb_entries] sizes the software TLB (default 256; 0 disables
    it). *)

val get : t -> int -> int64
(** Read a register; x0 reads zero. *)

val set : t -> int -> int64 -> unit
(** Write a register; writes to x0 are discarded. *)

val reset : t -> pc:int64 -> unit
(** Reset to M-mode at the given PC (registers cleared, TLB
    flushed). *)

(** Privilege-transfer transforms (trap entry, mret/sret, interrupt
    selection) over an abstract bitvector domain. The interpreter runs
    the concrete instantiation {!Xfer_c}; the faithful-emulation
    prover runs the same functor at the symbolic backend. *)
module Xfer (B : Mir_util.Bits_sig.S) : sig
  val trap_entry_m : mstatus:B.t -> from_priv:Priv.t -> B.t
  (** mstatus after trap entry to M: MPIE<-MIE, MIE<-0, MPP<-priv. *)

  val trap_entry_s : mstatus:B.t -> from_priv:Priv.t -> B.t
  (** mstatus after a delegated trap: SPIE<-SIE, SIE<-0, SPP<-priv. *)

  val mret_mstatus : ?skip_mpie:bool -> B.t -> B.t
  (** mstatus after mret; [skip_mpie] reproduces Mret_skips_mpie. *)

  val mret_target_priv : B.t -> Priv.t
  (** The MPP field as a privilege (decides the MPP bits). *)

  val sret_mstatus : B.t -> B.t
  (** mstatus after sret: SIE<-SPIE, SPIE<-1, SPP<-U, MPRV<-0. *)

  val sret_target_priv : B.t -> Priv.t

  val csr_rmw : Instr.csr_op -> old:B.t -> src:B.t -> B.t
  (** The written value of csrrw/csrrs/csrrc before WARL merging. *)

  val select_interrupt : Cause.intr list -> B.t -> Cause.intr option
  (** Highest-priority pending interrupt in the mask, if any, with
      priority given highest first. *)

  val pending_interrupt :
    priv:Priv.t ->
    mstatus:B.t ->
    mip:B.t ->
    mie:B.t ->
    mideleg:B.t ->
    Cause.intr option
  (** The architectural take-an-interrupt decision, in
      {!Cause.priority} order. *)
end

module Xfer_c : sig
  val trap_entry_m : mstatus:int64 -> from_priv:Priv.t -> int64
  val trap_entry_s : mstatus:int64 -> from_priv:Priv.t -> int64
  val mret_mstatus : ?skip_mpie:bool -> int64 -> int64
  val mret_target_priv : int64 -> Priv.t
  val sret_mstatus : int64 -> int64
  val sret_target_priv : int64 -> Priv.t
  val csr_rmw : Instr.csr_op -> old:int64 -> src:int64 -> int64
  val select_interrupt : Cause.intr list -> int64 -> Cause.intr option

  val pending_interrupt :
    priv:Priv.t ->
    mstatus:int64 ->
    mip:int64 ->
    mie:int64 ->
    mideleg:int64 ->
    Cause.intr option
end
(** {!Xfer} at the concrete [int64] domain. *)
