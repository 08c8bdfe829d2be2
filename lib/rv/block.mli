(** Decoded basic blocks and their physically-indexed cache.

    A block is an array of pre-decoded instruction closures keyed by
    the icache word index (physical RAM location) of its first
    instruction. Virtual-side validity is re-checked on every dispatch
    through the TLB fetch-page cache (vm-epoch invalidation covers
    satp/PMP/mstatus writes and sfence.vma); physical-side
    invalidation is page-granular and driven by the same
    [Machine.icache_invalidate]/[flush_icache] events that keep the
    word icache coherent. See DESIGN.md §11 for the full invalidation
    matrix. *)

type t = {
  ops : (Hart.t -> unit) array;
      (** one closure per instruction, in address order, compiled by
          [Machine.op_of_instr] — the machine's only instruction
          semantics, which the interpreter also runs — raising
          [Cause.Trap] for faults. Closures that need their own pc
          read it as [hart.bpc] plus a compile-time offset; pure
          closures leave [pc] itself to the executor — see
          block.ml *)
  pure_run : int array;
      (** [pure_run.(i)] = length of the run of consecutive pure
          (register-only, non-trapping, hook-free) ops starting at
          [i]; every suffix of a pure run is itself a pure run *)
  cls : Bytes.t;
      (** executor class per op — 0 pure, 1 control (jal/jalr/branch),
          2 memory (load/store/amo), 3 delegate; see block.ml for the
          exact guarantees each class makes to the executor *)
  term_inert : bool;
      (** the final op's class is <= 2, i.e. falling off the block end
          provably leaves translation, privilege and the vm-epoch as
          they were at dispatch (enables same-page chain shortcuts) *)
  whole : bool;
      (** one pure run capped by a control terminator, <= 16 ops: the
          executor's resident self-chain loop applies (see
          [Machine.exec_block]) *)
}

val length : t -> int

type cache
(** Per-machine block store, indexed like the icache (one slot per RAM
    word). Owned by a [Machine.t] — never shared across machines or
    domains. *)

val create : words:int -> cache
(** [words] = RAM size / 4, matching the icache. *)

val lookup : cache -> int -> t option
(** Block starting at the given RAM word index, if still live. The
    index must be in range (it comes from the fetch-page cache, which
    only holds pages wholly inside RAM). *)

val insert : cache -> int -> t -> unit
(** Publish a freshly compiled block at its start word index. *)

val note_dispatch : cache -> unit
val note_dispatches : cache -> int -> unit
val note_block_instrs : cache -> int -> unit
val note_interp_instr : cache -> unit
(** Stats feeders for the executor in [Machine]. *)

val invalidate_word : cache -> int -> unit
(** A store hit the given RAM word: drop every block on its 4 KiB
    page (blocks never span pages, so this is a complete kill). Costs
    one array read when the page holds no blocks. *)

val flush : cache -> unit
(** Drop every block (program load, snapshot restore, fence.i). *)

type stats = {
  compiled : int;
  invalidated : int;
  dispatches : int;  (** block executions begun *)
  block_instrs : int;  (** instructions retired inside blocks *)
  interp_instrs : int;
      (** instructions retired by the engine's interpreter fallback *)
}

val stats : cache -> stats

val hit_rate : cache -> float
(** block-retired / (block-retired + fallback-retired) instructions;
    0 when the engine has not executed anything. *)
