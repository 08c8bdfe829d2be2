module Bits = Mir_util.Bits
module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Clint = Mir_rv.Clint
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Csr_spec = Mir_rv.Csr_spec
module Instr = Mir_rv.Instr
module Vmem = Mir_rv.Vmem
module Ms = Csr_spec.Mstatus

type result = Not_handled | Resume_at of int64

let mepc hart = Csr_file.read_raw hart.Hart.csr Csr_addr.mepc
let charge = Machine.charge

(* Expand an SBI hart mask (mask in a0, base hartid in a1; base = -1
   means "all harts") into a hart-id list. Ids are computed in Int64, so
   a guest-chosen base cannot wrap into range; [None] when the mask
   selects an id outside [0, nharts), which the caller answers with
   SBI_ERR_INVALID_PARAM. *)
let hart_targets (m : Machine.t) ~mask ~base =
  let n = Array.length m.Machine.harts in
  if base = -1L then Some (List.init n Fun.id)
  else
    let ids =
      List.filter_map
        (fun i ->
          if Bits.test mask i then Some (Int64.add base (Int64.of_int i))
          else None)
        (List.init 64 Fun.id)
    in
    if List.for_all (fun h -> h >= 0L && h < Int64.of_int n) ids then
      Some (List.map Int64.to_int ids)
    else None

(* Post a virtual IPI/rfence to each target: set the vCLINT pending
   flag and kick the physical MSIP in the same step. Under the
   Dropped_msip injected bug, a target that was preempted mid-trap
   (its last step ended in a trap entry and it has not run since) gets
   its physical kick [race_window] steps late, leaving a window in
   which the vCLINT says "pending" but the CLINT will not deliver —
   the delivery-ordering inconsistency the explorer's oracle checks.
   The posting hart itself is exempt: it is always mid-trap (it is
   executing the ecall being offloaded). *)
let kick_with (m : Machine.t) vclint flag ~poster targets =
  List.iter
    (fun h ->
      flag vclint h true;
      let dropped =
        m.Machine.race_bug = Some Machine.Dropped_msip
        && h <> poster
        && m.Machine.harts.(h).Hart.just_trapped
      in
      if dropped then
        Machine.defer m ~ticks:Machine.race_window (fun m ->
            Clint.set_msip m.Machine.clint h true)
      else Clint.set_msip m.Machine.clint h true)
    targets

(* Offloaded IPI or remote fence: post to every target and return
   success, or touch nothing and return SBI_ERR_INVALID_PARAM when the
   mask names a hart that does not exist. *)
let kick m vclint flag hart ~mask ~base =
  let ret a0 =
    Hart.set hart 10 a0;
    Hart.set hart 11 0L;
    Resume_at (Int64.add (mepc hart) 4L)
  in
  match hart_targets m ~mask ~base with
  | Some targets ->
      kick_with m vclint flag ~poster:hart.Hart.id targets;
      ret Mir_sbi.Sbi.success
  | None -> ret Mir_sbi.Sbi.err_invalid_param

let set_timer (config : Config.t) (m : Machine.t) vclint stats hart deadline =
  let h = hart.Hart.id in
  Vclint.set_offload_deadline vclint h deadline;
  Vclint.program_physical vclint m.Machine.clint h;
  (* Arming the timer clears any pending supervisor timer interrupt,
     as OpenSBI's handler does. *)
  Csr_file.set_mip_bits hart.Hart.csr Csr_spec.Irq.stip false;
  stats.Vfm_stats.offload_set_timer <- stats.Vfm_stats.offload_set_timer + 1;
  charge hart config.Config.cost.Cost.offload_set_timer

let try_ecall config (m : Machine.t) vclint stats hart =
  if not config.Config.offload then Not_handled
  else begin
    let ext = Hart.get hart 17 and fid = Hart.get hart 16 in
    let a0 = Hart.get hart 10 and a1 = Hart.get hart 11 in
    let ret () =
      Hart.set hart 10 Mir_sbi.Sbi.success;
      Hart.set hart 11 0L;
      Resume_at (Int64.add (mepc hart) 4L)
    in
    if
      (ext = Mir_sbi.Sbi.ext_time && fid = Mir_sbi.Sbi.fid_time_set_timer)
      || ext = Mir_sbi.Sbi.ext_legacy_set_timer
    then begin
      set_timer config m vclint stats hart a0;
      ret ()
    end
    else if ext = Mir_sbi.Sbi.ext_ipi && fid = Mir_sbi.Sbi.fid_ipi_send_ipi
    then begin
      let r = kick m vclint Vclint.set_os_ipi_pending hart ~mask:a0 ~base:a1 in
      stats.Vfm_stats.offload_ipi <- stats.Vfm_stats.offload_ipi + 1;
      charge hart config.Config.cost.Cost.offload_ipi;
      r
    end
    else if ext = Mir_sbi.Sbi.ext_rfence then begin
      let r = kick m vclint Vclint.set_rfence_pending hart ~mask:a0 ~base:a1 in
      stats.Vfm_stats.offload_rfence <- stats.Vfm_stats.offload_rfence + 1;
      charge hart config.Config.cost.Cost.offload_rfence;
      r
    end
    else Not_handled
  end

let try_illegal config (m : Machine.t) stats hart ~bits =
  if not config.Config.offload then Not_handled
  else
    match Mir_rv.Decode.decode (Int64.to_int (Int64.logand bits 0xFFFFFFFFL)) with
    | Some (Instr.Csr { op = Instr.Csrrs | Instr.Csrrc; rd; src; csr })
      when csr = Csr_addr.time
           && (src = Instr.Reg 0 || src = Instr.Imm 0) ->
        Hart.set hart rd (Clint.mtime m.Machine.clint);
        stats.Vfm_stats.offload_time_read <-
          stats.Vfm_stats.offload_time_read + 1;
        charge hart config.Config.cost.Cost.offload_time_read;
        Resume_at (Int64.add (mepc hart) 4L)
    | _ -> Not_handled

(* Emulate one misaligned load/store on behalf of the OS: fetch and
   decode the faulting instruction, then perform the access byte by
   byte through the OS page tables. *)
let try_misaligned config (m : Machine.t) stats hart ~store =
  if not config.Config.offload then Not_handled
  else begin
    let csr = hart.Hart.csr in
    let epc = mepc hart in
    let vaddr = Csr_file.read_raw csr Csr_addr.mtval in
    (* Effective privilege of the interrupted access. *)
    let priv = Ms.get_mpp (Csr_file.read_raw csr Csr_addr.mstatus) in
    let phys access a =
      Result.to_option (Machine.translate m hart ~priv access a)
    in
    let byte i = Int64.add vaddr (Int64.of_int i) in
    let rec read i acc =
      if i < 0 then Ok acc
      else
        match
          Option.bind (phys Vmem.Load (byte i)) (fun p ->
              Machine.phys_load m p 1)
        with
        | Some b -> read (i - 1) (Int64.logor (Int64.shift_left acc 8) b)
        | None -> Error ()
    in
    let rec write v i size =
      if i >= size then Ok 0L
      else
        match phys Vmem.Store (byte i) with
        | Some p
          when Machine.phys_store m p 1
                 (Bits.extract v ~lo:(8 * i) ~hi:((8 * i) + 7)) ->
            write v (i + 1) size
        | _ -> Error ()
    in
    (* the instruction must be the kind of access that trapped *)
    let access ~size ~write:w =
      match w with
      | None when not store -> read (size - 1) 0L
      | Some v when store -> write v 0 size
      | _ -> Error ()
    in
    let instr =
      Option.bind (phys Vmem.Fetch epc) (fun p ->
          Option.bind (Machine.phys_load m p 4) (fun w ->
              Mir_rv.Decode.decode (Int64.to_int w)))
    in
    match Option.bind instr (Emulator.load_store hart ~access) with
    | Some (Ok ()) ->
        stats.Vfm_stats.offload_misaligned <-
          stats.Vfm_stats.offload_misaligned + 1;
        charge hart config.Config.cost.Cost.offload_misaligned;
        Resume_at (Int64.add epc 4L)
    | Some (Error ()) | None -> Not_handled
  end
