module Bits = Mir_util.Bits
module Instr = Mir_rv.Instr
module Cause = Mir_rv.Cause
module Priv = Mir_rv.Priv
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Csr_spec = Mir_rv.Csr_spec
module Pmp = Mir_rv.Pmp
module Ms = Csr_spec.Mstatus

type ctx = {
  read_gpr : int -> int64;
  write_gpr : int -> int64 -> unit;
  pc : int64;
  cycles : int64;
  instret : int64;
  phys_custom_read : int -> int64;
  phys_custom_write : int -> int64 -> unit;
}

type action =
  | Next
  | Jump of int64
  | Exit_to_os of { pc : int64; priv : Priv.t }
  | Vtrap of Cause.exc * int64
  | Wfi
  | Unsupported

type outcome = { action : action; pmp_dirty : bool }

let ok action = { action; pmp_dirty = false }
let bug (config : Config.t) b = config.Config.inject_bug = Some b

(* MSI checked before MEI: the wrong-interrupt-priority bug. *)
let intr_priority_buggy =
  match Cause.priority with a :: b :: rest -> b :: a :: rest | l -> l

(* ------------------------------------------------------------------ *)
(* The emulator's pure state transforms, over an abstract bitvector    *)
(* domain. The concrete instantiation [Sem_c] is what [emulate] runs   *)
(* below; the faithful-emulation prover runs [Sem (Mir_sym.Backend)]   *)
(* against the reference semantics over the whole state space —        *)
(* including the injected-bug variants, which must each produce a      *)
(* divergence with a concrete counterexample.                          *)
(* ------------------------------------------------------------------ *)

module Sem (B : Mir_util.Bits_sig.S) = struct
  module X = Mir_rv.Hart.Xfer (B)

  let csr_rmw = X.csr_rmw
  let mret_mstatus = X.mret_mstatus
  let mret_target_priv = X.mret_target_priv
  let sret_mstatus = X.sret_mstatus
  let sret_target_priv = X.sret_target_priv

  (* The Mpp_not_legalized bug: mask-merge into mstatus but skip the
     WARL legalization of the MPP field. *)
  let mstatus_write_no_legalize ~old ~value =
    let wm = B.const Ms.write_mask in
    B.logor (B.logand old (B.lognot wm)) (B.logand value wm)

  (* The virtual-interrupt injection decision: only non-delegated
     (M-level) interrupts are injected into vM-mode — delegated ones
     belong to the OS and are delivered natively. In the Firmware
     world the virtual privilege is M, so injection is gated by the
     virtual mstatus.MIE; below M it is always enabled. *)
  let virtual_interrupt ~order ~(world : Vhart.world) ~mstatus ~mip ~mie
      ~mideleg =
    let pending = B.logand (B.logand mip mie) (B.lognot mideleg) in
    if B.decide (B.eq_const pending 0L) then None
    else begin
      let enabled =
        match world with
        | Vhart.Firmware -> B.decide (B.test mstatus Ms.mie)
        | Vhart.Os -> true
      in
      if not enabled then None else X.select_interrupt order pending
    end
end

module Sem_c = Sem (Mir_util.Bits_sig.I64)

(* Recompute whether the MPRV-emulation trick must be engaged: the
   firmware enabled MPRV with an MPP pointing below M, so its loads
   and stores must be translated on its behalf. *)
let sync_mprv (vh : Vhart.t) =
  let ms = Csr_file.read_raw vh.Vhart.csr Csr_addr.mstatus in
  let active = Bits.test ms Ms.mprv && Ms.get_mpp ms <> Priv.M in
  let changed = active <> vh.Vhart.mprv_active in
  vh.Vhart.mprv_active <- active;
  changed

let emulate_csr config (vh : Vhart.t) ctx ~bits op rd src csr_addr =
  let vcsr = vh.Vhart.csr in
  let illegal () = ok (Vtrap (Cause.Illegal_instr, Int64.of_int bits)) in
  (* The virtual privilege level is M while in vM-mode, so the
     privilege check always passes; the read-only check still
     applies. *)
  let write_needed = Instr.csr_writes op src in
  if write_needed && Csr_addr.is_read_only csr_addr then illegal ()
  else begin
    let src_val =
      match src with
      | Instr.Reg r -> ctx.read_gpr r
      | Instr.Imm z -> Int64.of_int z
    in
    let new_value old = Sem_c.csr_rmw op ~old ~src:src_val in
    let finish ?(pmp_dirty = false) old =
      ctx.write_gpr rd old;
      { action = Next; pmp_dirty }
    in
    if csr_addr = Csr_addr.mcycle || csr_addr = Csr_addr.cycle then
      (* In virtual M-mode, cycle counters read the real ones. *)
      finish ctx.cycles
    else if csr_addr = Csr_addr.minstret || csr_addr = Csr_addr.instret then
      finish ctx.instret
    else if csr_addr = Csr_addr.time then
      (* The virtual hart, like the modelled boards, has no time CSR:
         the firmware's own read must trap — to the *virtual* trap
         handler. *)
      illegal ()
    else if List.mem csr_addr config.Config.allowed_custom_csrs then begin
      (* Platform CSRs explicitly allowed through to hardware. *)
      let old = ctx.phys_custom_read csr_addr in
      if write_needed then ctx.phys_custom_write csr_addr (new_value old);
      finish old
    end
    else if not (Csr_file.exists vcsr csr_addr) then begin
      (* The Vpmp_overrun bug accepts one pmpaddr index past the
         implemented count (the out-of-bounds write of §6.5). *)
      if
        bug config Config.Vpmp_overrun
        && Csr_addr.is_pmpaddr csr_addr
        && csr_addr - 0x3B0 = config.Config.vcsr_config.Csr_spec.pmp_count
      then begin
        let old = Csr_file.read_raw vcsr csr_addr in
        if write_needed then Csr_file.write_raw vcsr csr_addr (new_value old);
        finish ~pmp_dirty:true old
      end
      else illegal ()
    end
    else begin
      let old = Csr_file.read vcsr csr_addr in
      if write_needed then begin
        let v = new_value old in
        if csr_addr = Csr_addr.mstatus && bug config Config.Mpp_not_legalized
        then
          (* skip WARL legalization of MPP (bug class: CSR bit
             patterns) *)
          Csr_file.write_raw vcsr csr_addr
            (Sem_c.mstatus_write_no_legalize
               ~old:(Csr_file.read_raw vcsr csr_addr) ~value:v)
        else if
          Csr_addr.is_pmpcfg csr_addr && bug config Config.Pmp_w_without_r
        then
          (* skip the W=1/R=0 legalization *)
          Csr_file.write_raw vcsr csr_addr v
        else if Csr_addr.is_pmpaddr csr_addr then begin
          (* Honour virtual PMP locks, as hardware does. *)
          let idx = csr_addr - 0x3B0 in
          if not (Pmp.locked (Csr_file.pmp_entries vcsr) idx) then
            Csr_file.write vcsr csr_addr v
        end
        else Csr_file.write vcsr csr_addr v;
        let mprv_changed =
          if csr_addr = Csr_addr.mstatus then sync_mprv vh else false
        in
        let pmp_dirty =
          Csr_addr.is_pmpcfg csr_addr
          || Csr_addr.is_pmpaddr csr_addr
          || mprv_changed
        in
        ctx.write_gpr rd old;
        { action = Next; pmp_dirty }
      end
      else finish old
    end
  end

let emulate_mret config (vh : Vhart.t) =
  let vcsr = vh.Vhart.csr in
  let m = Csr_file.read_raw vcsr Csr_addr.mstatus in
  let new_priv = Sem_c.mret_target_priv m in
  Csr_file.write_raw vcsr Csr_addr.mstatus
    (Sem_c.mret_mstatus ~skip_mpie:(bug config Config.Mret_skips_mpie) m);
  let mprv_changed = sync_mprv vh in
  let target = Csr_file.read_raw vcsr Csr_addr.mepc in
  let action =
    if new_priv = Priv.M then Jump target
    else Exit_to_os { pc = target; priv = new_priv }
  in
  { action; pmp_dirty = mprv_changed }

let emulate_sret (vh : Vhart.t) =
  let vcsr = vh.Vhart.csr in
  let m = Csr_file.read_raw vcsr Csr_addr.mstatus in
  let new_priv = Sem_c.sret_target_priv m in
  Csr_file.write_raw vcsr Csr_addr.mstatus (Sem_c.sret_mstatus m);
  let mprv_changed = sync_mprv vh in
  let target = Csr_file.read_raw vcsr Csr_addr.sepc in
  { action = Exit_to_os { pc = target; priv = new_priv };
    pmp_dirty = mprv_changed }

let emulate config vh ctx ~bits instr =
  match instr with
  | Instr.Csr { op; rd; src; csr } ->
      emulate_csr config vh ctx ~bits op rd src csr
  | Instr.Mret -> emulate_mret config vh
  | Instr.Sret -> emulate_sret vh
  | Instr.Wfi -> ok Wfi
  | Instr.Sfence_vma _ -> ok Next
  | Instr.Ecall -> ok (Vtrap (Cause.Ecall_from_m, 0L))
  | Instr.Ebreak -> ok (Vtrap (Cause.Breakpoint, ctx.pc))
  | Instr.Fence | Instr.Fence_i -> ok Next
  | Instr.Lui _ | Instr.Auipc _ | Instr.Jal _ | Instr.Jalr _
  | Instr.Branch _ | Instr.Load _ | Instr.Store _ | Instr.Op_imm _
  | Instr.Op_imm32 _ | Instr.Op _ | Instr.Op32 _ | Instr.Amo _ ->
      ok Unsupported

let check_virtual_interrupt config (vh : Vhart.t) =
  let vcsr = vh.Vhart.csr in
  let order =
    if bug config Config.Interrupt_priority_swapped then intr_priority_buggy
    else Cause.priority
  in
  Sem_c.virtual_interrupt ~order ~world:vh.Vhart.world
    ~mstatus:(Csr_file.read_raw vcsr Csr_addr.mstatus)
    ~mip:(Csr_file.read_raw vcsr Csr_addr.mip)
    ~mie:(Csr_file.read_raw vcsr Csr_addr.mie)
    ~mideleg:(Csr_file.read_raw vcsr Csr_addr.mideleg)

(* Virtual trap entry: the hardware M-mode trap-entry transform applied
   to the virtual CSRs, as if the trap came from [mpp]. *)
let vtrap_entry (vh : Vhart.t) cause ~tval ~epc ~mpp =
  let v = vh.Vhart.csr in
  Csr_file.write_raw v Csr_addr.mepc epc;
  Csr_file.write_raw v Csr_addr.mcause (Cause.to_xcause cause);
  Csr_file.write_raw v Csr_addr.mtval tval;
  Csr_file.write_raw v Csr_addr.mstatus
    (Mir_rv.Hart.Xfer_c.trap_entry_m
       ~mstatus:(Csr_file.read_raw v Csr_addr.mstatus)
       ~from_priv:mpp);
  Cause.tvec_target (Csr_file.read_raw v Csr_addr.mtvec) cause

(* A trapped load or store performed on a guest's behalf: [access]
   does the device, page-table or byte-wise work; the decode, the
   extension and the rd write are shared by every backend. *)
let load_store hart instr ~access =
  match instr with
  | Instr.Load { width; unsigned; rd; _ } ->
      let size = Instr.width_bytes width in
      Some
        (Result.map
           (fun v ->
             Mir_rv.Hart.set hart rd
               (if unsigned then v else Bits.sext v ~width:(8 * size)))
           (access ~size ~write:None))
  | Instr.Store { width; rs2; _ } ->
      Some
        (Result.map ignore
           (access ~size:(Instr.width_bytes width)
              ~write:(Some (Mir_rv.Hart.get hart rs2))))
  | _ -> None
