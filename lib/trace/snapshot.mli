(** Architectural checkpoints with incremental memory capture.

    A checkpoint records every hart (GPRs, pc, privilege, the full raw
    CSR file including PMP), the devices (CLINT, PLIC, UART, block
    device, NIC), and memory. The first checkpoint in a chain copies
    all of RAM; subsequent ones copy only the 4 KiB pages dirtied
    since the previous checkpoint ({!Mir_rv.Memory.dirty_pages}), so
    checkpointing every N million instructions stays cheap. Restore
    walks the chain root-forward.

    Monitor (VFM) state lives above this library in the dependency
    order, so it is captured through an opaque [restore_extra]
    closure — see [Miralis.Monitor.save]. *)

type t

val take :
  ?prev:t -> ?events_before:int -> ?restore_extra:(unit -> unit) ->
  Mir_rv.Machine.t -> t
(** Snapshot the machine. Without [prev] the snapshot is a chain root
    (full RAM copy); with it, only pages dirtied since [prev] are
    copied. [events_before] stamps the recorder's event count so
    replay knows where in the log to resume. Clears the dirty set. *)

val restore : Mir_rv.Machine.t -> t -> unit
(** Rewind the machine: memory (chain root forward), harts, devices,
    the [restore_extra] closure, the instruction counter. Clears
    poweroff and flushes the icache and every hart's TLB. *)

val instrs : t -> int64
val events_before : t -> int

val hash : Mir_rv.Machine.t -> int64
(** Digest of the full architectural state: every hart (pc, privilege,
    GPRs, all non-zero CSRs), all of RAM, CLINT comparators and the
    console transcript. Two runs that end bit-identical hash equal. *)

(** {2 Periodic checkpointing}

    A manager hooks {!Mir_rv.Machine.t.on_chunk} and takes a
    checkpoint every [every] retired instructions (measured at chunk
    granularity). The root checkpoint is taken immediately. *)

type manager

val manage :
  ?extra_save:(unit -> unit -> unit) ->
  ?events_seen:(unit -> int) ->
  every:int64 ->
  Mir_rv.Machine.t ->
  manager
(** [extra_save] is called at each checkpoint and must return the
    restore closure (e.g. [Miralis.Monitor.save]); [events_seen]
    supplies the recorder's running event count. *)

val checkpoints : manager -> t list
(** Oldest (root) first. *)
