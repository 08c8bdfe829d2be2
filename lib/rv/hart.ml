type t = {
  id : int;
  mutable pc : int64;
  regs : Bytes.t;
  csr : Csr_file.t;
  tlb : Tlb.t;
  mutable priv : Priv.t;
  mutable wfi : bool;
  mutable cycles : int;
  mutable instret : int;
  mutable irq_stale : int;
  mutable reservation : int64 option;
  mutable just_trapped : bool;
  mutable bpc : int64;
      (* virtual pc of the executing decoded block's entry (the
         instruction's own pc when the interpreter applies one op),
         read by ops that need their own pc (auipc, jal/jalr links,
         branches) while the block executor leaves [pc] unwritten
         across pure runs. Scratch for [Machine]'s ops; never
         snapshotted or hashed. *)
}

let create ?(tlb_entries = 256) config ~id =
  {
    id;
    pc = 0L;
    regs = Bytes.make 256 '\000';
    csr = Csr_file.create config ~hart_id:id;
    tlb = Tlb.create ~entries:tlb_entries;
    priv = Priv.M;
    wfi = false;
    cycles = 0;
    instret = 0;
    irq_stale = 0;
    reservation = None;
    just_trapped = false;
    bpc = 0L;
  }

(* The register file is a flat byte buffer of 32 little-endian int64
   slots rather than an [int64 array]: array elements would each be a
   pointer to a boxed int64, so every register write would allocate
   and run the write barrier. Accesses compile to raw unboxed
   loads/stores, which the decoded basic-block engine depends on for
   its instrs/sec target. The register number is masked to 5 bits
   instead of bounds-checked — identical for every architecturally
   possible input (decoders produce 5-bit fields), and memory-safe
   for any other. *)
external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let get t r =
  if r = 0 then 0L
  else
    let v = unsafe_get_64 t.regs ((r land 31) lsl 3) in
    if Sys.big_endian then swap64 v else v

let set t r v =
  if r <> 0 then
    unsafe_set_64 t.regs ((r land 31) lsl 3)
      (if Sys.big_endian then swap64 v else v)

let reset t ~pc =
  t.pc <- pc;
  t.reservation <- None;
  Bytes.fill t.regs 0 256 '\000';
  t.priv <- Priv.M;
  t.wfi <- false;
  t.just_trapped <- false;
  Tlb.flush t.tlb

(* ------------------------------------------------------------------ *)
(* Privilege-transfer transforms over an abstract bitvector domain.    *)
(* The machine interpreter runs [Xfer_c]; the faithful-emulation       *)
(* prover runs [Xfer (Mir_sym.Backend)] — the same code, so anything   *)
(* proved about the symbolic instantiation holds of the interpreter.   *)
(* Transforms are written branch-free (ite/mask form) where possible;  *)
(* [B.decide] marks the genuine control decisions (target privilege,   *)
(* interrupt selection), which the symbolic backend path-splits on.    *)
(* ------------------------------------------------------------------ *)

module Xfer (B : Mir_util.Bits_sig.S) = struct
  module Ms = Csr_spec.Mstatus

  (* mstatus after entering a trap handled in M-mode:
     MPIE <- MIE, MIE <- 0, MPP <- from_priv. *)
  let trap_entry_m ~mstatus ~from_priv =
    let m = B.write mstatus Ms.mpie (B.test mstatus Ms.mie) in
    let m = B.clear m Ms.mie in
    B.insert m ~lo:Ms.mpp_lo ~hi:Ms.mpp_hi
      ~value:(B.const (Int64.of_int (Priv.to_int from_priv)))

  (* mstatus after a delegated trap (handled in S-mode):
     SPIE <- SIE, SIE <- 0, SPP <- from_priv. *)
  let trap_entry_s ~mstatus ~from_priv =
    let m = B.write mstatus Ms.spie (B.test mstatus Ms.sie) in
    let m = B.clear m Ms.sie in
    B.write m Ms.spp (B.bit_const (from_priv = Priv.S))

  (* mstatus after mret: MIE <- MPIE, MPIE <- 1, MPP <- U, and MPRV is
     kept only when returning to M (MPP was 3). [skip_mpie] reproduces
     the Mret_skips_mpie injected bug: MIE keeps its old value. *)
  let mret_mstatus ?(skip_mpie = false) m0 =
    let mpp_is_m = B.bit_and (B.test m0 Ms.mpp_hi) (B.test m0 Ms.mpp_lo) in
    let m = if skip_mpie then m0 else B.write m0 Ms.mie (B.test m0 Ms.mpie) in
    let m = B.set m Ms.mpie in
    let m = B.insert m ~lo:Ms.mpp_lo ~hi:Ms.mpp_hi ~value:(B.const 0L) in
    B.write m Ms.mprv (B.bit_and (B.test m0 Ms.mprv) mpp_is_m)

  (* The privilege mret returns to — MPP, with the reserved encoding 2
     (never stored: legalized away) mapping to U like Mstatus.get_mpp. *)
  let mret_target_priv m =
    let hi = B.decide (B.test m Ms.mpp_hi) in
    let lo = B.decide (B.test m Ms.mpp_lo) in
    if hi && lo then Priv.M else if (not hi) && lo then Priv.S else Priv.U

  (* mstatus after sret: SIE <- SPIE, SPIE <- 1, SPP <- U, MPRV <- 0. *)
  let sret_mstatus m0 =
    let m = B.write m0 Ms.sie (B.test m0 Ms.spie) in
    let m = B.set m Ms.spie in
    let m = B.write m Ms.spp (B.bit_const false) in
    B.clear m Ms.mprv

  let sret_target_priv m =
    if B.decide (B.test m Ms.spp) then Priv.S else Priv.U

  (* The new CSR value of a csrrw/csrrs/csrrc before WARL merging. *)
  let csr_rmw (op : Instr.csr_op) ~old ~src =
    match op with
    | Instr.Csrrw -> src
    | Instr.Csrrs -> B.logor old src
    | Instr.Csrrc -> B.logand old (B.lognot src)

  (* Highest-priority pending interrupt in [mask], per [order]. *)
  let select_interrupt order mask =
    List.find_opt (fun i -> B.decide (B.test mask (Cause.intr_code i))) order

  (* The architectural pending-interrupt decision (privilege enables,
     mideleg routing, {!Cause.priority}), shared verbatim with the
     machine. *)
  let pending_interrupt ~priv ~mstatus ~mip ~mie ~mideleg =
    let pending = B.logand mip mie in
    if B.decide (B.eq_const pending 0L) then None
    else begin
      let m_enabled = priv <> Priv.M || B.decide (B.test mstatus Ms.mie) in
      let s_enabled =
        priv = Priv.U || (priv = Priv.S && B.decide (B.test mstatus Ms.sie))
      in
      let m_pending = B.logand pending (B.lognot mideleg) in
      let s_pending = B.logand pending mideleg in
      if m_enabled && not (B.decide (B.eq_const m_pending 0L)) then
        select_interrupt Cause.priority m_pending
      else if
        s_enabled
        && (not (B.decide (B.eq_const s_pending 0L)))
        && priv <> Priv.M
      then select_interrupt Cause.priority s_pending
      else None
    end
end

(* The concrete instantiation the interpreter and the VFM run. *)
module Xfer_c = Xfer (Mir_util.Bits_sig.I64)
