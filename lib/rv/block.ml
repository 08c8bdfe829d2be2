(* Decoded basic blocks and their physically-indexed cache.

   A block is a run of pre-decoded instructions compiled to closures,
   one per instruction, by [Machine.op_of_instr] — the one definition
   of each instruction's effect, which the interpreter applies an op
   at a time.
   Blocks are keyed by the icache word index of their first
   instruction — a *physical* RAM location — so a block is valid for
   any virtual alias of its page; virtual-side validity (translation,
   privilege, page-wide PMP execute) is re-established on every
   dispatch through the TLB fetch-page cache, which the vm-epoch
   machinery already invalidates on satp/PMP/mstatus writes and
   sfence.vma.

   Physical-side invalidation is page-granular: any store into a RAM
   page that holds compiled blocks drops every block on that page
   (blocks never span a 4 KiB page, so clearing a page's slot range is
   a complete kill). Over-invalidation is harmless — a recompile reads
   the same icache entries the interpreter would fetch — and the
   [page_count] guard keeps the common store-to-data-page case at one
   array read.

   The cache lives inside the owning [Machine.t] (lint rule 6: no
   top-level mutable state in the domain-shared core). *)

type t = {
  ops : (Hart.t -> unit) array;
      (* one closure per instruction, taking only the hart (so calls
         are direct one-argument indirect calls, never caml_apply).
         A closure that needs its own pc computes it as
         [hart.bpc + off], with [off] — its byte offset from the
         block entry — baked in at compile time and [bpc] maintained
         by the executor. Pure closures never write [pc] (the
         executor materializes [pc <- bpc + 4 i] only when something
         can observe it); control closures write the successor pc
         absolutely; memory and delegate closures run with [pc]
         accurate and advance it themselves, exactly as the
         interpreter would. *)
  pure_run : int array;
      (* [pure_run.(i)] = number of consecutive pure (register-only,
         non-trapping, hook-free) ops starting at [i]; the executor
         batches their per-step bookkeeping when interrupt timing
         provably cannot observe the difference *)
  cls : Bytes.t;
      (* executor class per op, driving how much of the interpreter's
         per-step ceremony can be skipped:
         0 pure     — register-only; cannot trap, store, or observe
                      counters
         1 control  — jal/jalr/branch; can only trap (misaligned
                      target), cannot store, halt, power off, or
                      change translation
         2 memory   — load/store/amo; can trap, invalidate blocks and
                      power off, but cannot change translation,
                      privilege or the vm-epoch
         3 delegate — everything else (csr, xret, wfi, fence.i,
                      sfence.vma, ecall/ebreak); may change
                      anything, so it gets the interpreter's full
                      per-step ceremony *)
  term_inert : bool;
      (* class of the last op is <= 2: after the block falls off its
         end, translation, privilege and the vm-epoch are provably
         unchanged since dispatch, so a chain within the same virtual
         page may reuse the dispatch-time fetch-page base *)
  whole : bool;
      (* the block is one pure run capped by a control terminator and
         short enough (<= 16 ops) to fit a full irq-stale window: the
         executor may run it as a single batch and, on a self-chain,
         stay in a register-resident loop (the shape of every tight
         guest loop) *)
}

let length b = Array.length b.ops

type cache = {
  slots : t option array;  (* indexed like Machine.icache: RAM word *)
  page_count : int array;  (* live blocks per 4 KiB RAM page *)
  mutable compiled : int;
  mutable invalidated : int;
  mutable dispatches : int;  (* block executions begun *)
  mutable block_instrs : int;  (* instructions retired inside blocks *)
  mutable interp_instrs : int;
      (* instructions retired by the engine's interpreter fallback
         (cold/undecodable first word, fetch-page-cache miss) *)
}

let words_per_page = 1024 (* 4 KiB / 4 *)

let create ~words =
  {
    slots = Array.make words None;
    page_count = Array.make ((words + words_per_page - 1) / words_per_page) 0;
    compiled = 0;
    invalidated = 0;
    dispatches = 0;
    block_instrs = 0;
    interp_instrs = 0;
  }

let lookup c idx = Array.unsafe_get c.slots idx

let insert c idx b =
  c.slots.(idx) <- Some b;
  c.page_count.(idx / words_per_page) <-
    c.page_count.(idx / words_per_page) + 1;
  c.compiled <- c.compiled + 1

(* Kill every block on the page containing word [idx] (a store landed
   there). One array read when the page holds no blocks. *)
let invalidate_word c idx =
  let page = idx / words_per_page in
  let n = c.page_count.(page) in
  if n > 0 then begin
    Array.fill c.slots (page * words_per_page) words_per_page None;
    c.page_count.(page) <- 0;
    c.invalidated <- c.invalidated + n
  end

let flush c =
  Array.iteri
    (fun page n ->
      if n > 0 then begin
        Array.fill c.slots (page * words_per_page) words_per_page None;
        c.page_count.(page) <- 0;
        c.invalidated <- c.invalidated + n
      end)
    c.page_count

let note_dispatch c = c.dispatches <- c.dispatches + 1
let note_dispatches c n = c.dispatches <- c.dispatches + n
let note_block_instrs c n = c.block_instrs <- c.block_instrs + n
let note_interp_instr c = c.interp_instrs <- c.interp_instrs + 1

type stats = {
  compiled : int;
  invalidated : int;
  dispatches : int;
  block_instrs : int;
  interp_instrs : int;
}

let stats (c : cache) =
  {
    compiled = c.compiled;
    invalidated = c.invalidated;
    dispatches = c.dispatches;
    block_instrs = c.block_instrs;
    interp_instrs = c.interp_instrs;
  }

(* Hit rate over instructions executed by the block engine's entry
   point (block-retired / all engine-retired). *)
let hit_rate (c : cache) =
  let total = c.block_instrs + c.interp_instrs in
  if total = 0 then 0. else float_of_int c.block_instrs /. float_of_int total
