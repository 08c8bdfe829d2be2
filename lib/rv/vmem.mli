(** Sv39 virtual-memory translation.

    Used for S/U-mode execution when [satp] selects Sv39 and by the
    VFM's MPRV emulation path, which must walk the OS page tables to
    perform accesses on behalf of the virtualized firmware. *)

type access = Fetch | Load | Store

type leaf = { phys : int64; pte : int64; level : int }
(** A successful walk: translated physical address, leaf PTE after the
    hardware A/D update, and the level it was found at (0 = 4 KiB
    page, -1 = bare/M-mode passthrough with [pte = 0]). Everything a
    TLB needs to install an entry. *)

(** The walker is functorized over its PTE memory: the machine and the
    monitor's MPRV emulation instantiate it at {!Bus_mem} (static
    calls, no per-access closure allocation); the explorer's TLB
    oracle and tests use the closure-backed {!translate} below. *)
module type MEM = sig
  type mem

  val read : mem -> int64 -> int64 option
  (** 8-byte physical load; [None] = bus error. *)

  val write : mem -> int64 -> int64 -> unit
  (** 8-byte physical store (A/D write-back). *)
end

module Make (M : MEM) : sig
  val translate_leaf :
    M.mem ->
    satp:int64 ->
    priv:Priv.t ->
    sum:bool ->
    mxr:bool ->
    access ->
    int64 ->
    (leaf, Cause.exc) result
end

module Bus_mem : MEM with type mem = Bus.t

module On_bus : sig
  val translate_leaf :
    Bus.t ->
    satp:int64 ->
    priv:Priv.t ->
    sum:bool ->
    mxr:bool ->
    access ->
    int64 ->
    (leaf, Cause.exc) result
end

val translate :
  read:(int64 -> int64 option) ->
  write:(int64 -> int64 -> unit) ->
  satp:int64 ->
  priv:Priv.t ->
  sum:bool ->
  mxr:bool ->
  access ->
  int64 ->
  (int64, Cause.exc) result
(** [translate ~read ~write ~satp ~priv ~sum ~mxr access vaddr] walks
    the page tables using [read] (8-byte physical loads, [None] = bus
    error) and [write] (to update A/D bits, hardware-managed style).
    Returns the physical address or the page-fault cause appropriate
    to the access type. If [satp] is Bare or [priv] is M, the address
    is returned unchanged. *)

val pte_ppn : int64 -> int64
(** The physical page number field of a PTE. *)

(* PTE permission bits, exported for page-table construction. *)
val pte_v : int64
val pte_r : int64
val pte_w : int64
val pte_x : int64
val pte_u : int64
val pte_g : int64
val pte_a : int64
val pte_d : int64
