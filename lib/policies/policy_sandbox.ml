module Policy = Miralis.Policy
module Vhart = Miralis.Vhart
module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Pmp = Mir_rv.Pmp
module Cause = Mir_rv.Cause
module Layout = Mir_firmware.Layout

type state = {
  mutable locked : bool;
  mutable boot_image_hash : int64;
  mutable scrubbed : bool;
  mutable violations : int;
}

let pmp_slots = 3

let hash_region m ~base ~len =
  (* FNV-1a, 64-bit. *)
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to len - 1 do
    match Machine.phys_load m (Int64.add base (Int64.of_int i)) 1 with
    | Some b ->
        h := Int64.mul (Int64.logxor !h b) 0x100000001B3L
    | None -> ()
  done;
  !h

let allow_napot ~base ~size ~r ~w ~x =
  { Pmp.r; w; x; a = Pmp.Napot; l = false;
    addr = Pmp.napot_encode ~base ~size }

let deny_all = { Pmp.off_entry with a = Pmp.Napot; addr = -1L }

let create ?(allow_uart = true)
    ?(kernel_region = (Layout.kernel_base, 0x1000L)) () =
  let state =
    { locked = false; boot_image_hash = 0L; scrubbed = false; violations = 0 }
  in
  (* Saved OS registers across a scrubbed firmware entry, per hart.
     Owned by this policy instance (not the module): two machines — or
     two fleet domains — must never share mutable monitor state. *)
  let saved_regs = Hashtbl.create 8 in
  let kbase, klen = kernel_region in
  let pmp_entries (ctx : Policy.ctx) =
    match ctx.Policy.vhart.Vhart.world with
    | Vhart.Os -> []
    | Vhart.Firmware ->
        if not state.locked then []
        else
          let uart =
            if allow_uart then
              [ allow_napot ~base:Layout.uart ~size:0x100L ~r:true ~w:true
                  ~x:false ]
            else []
          in
          uart
          @ [
              allow_napot ~base:Layout.fw_base
                ~size:Layout.fw_size ~r:true ~w:true ~x:true;
              deny_all;
            ]
  in
  let on_switch_to_os (ctx : Policy.ctx) =
    if not state.locked then begin
      state.locked <- true;
      state.boot_image_hash <-
        hash_region ctx.Policy.machine ~base:kbase ~len:(Int64.to_int klen)
    end;
    (* Restore the registers hidden at firmware entry, keeping the SBI
       return values (a0/a1) produced by the firmware. *)
    (match Hashtbl.find_opt saved_regs ctx.Policy.hart.Hart.id with
    | None -> ()
    | Some (regs, keep_ret) ->
        Hashtbl.remove saved_regs ctx.Policy.hart.Hart.id;
        state.scrubbed <- false;
        Array.iteri
          (fun i v ->
            if i >= 1 && not (keep_ret && (i = 10 || i = 11)) then
              Hart.set ctx.Policy.hart i v)
          regs)
  in
  (* Scrub registers at firmware entry. For SBI calls, the argument
     allow-list from the spec decides which a-registers flow. *)
  let pending_call = Hashtbl.create 8 in
  let on_ecall_from_os (ctx : Policy.ctx) =
    Hashtbl.replace pending_call ctx.Policy.hart.Hart.id true;
    Policy.Pass
  in
  let on_switch_to_fw (ctx : Policy.ctx) =
    if state.locked then begin
      let hart = ctx.Policy.hart in
      let regs = Array.init 32 (fun i -> Hart.get hart i) in
      let is_call =
        Hashtbl.find_opt pending_call hart.Hart.id = Some true
      in
      Hashtbl.replace pending_call hart.Hart.id false;
      Hashtbl.replace saved_regs hart.Hart.id (regs, is_call);
      state.scrubbed <- true;
      let keep =
        if is_call then begin
          let ext = Hart.get hart 17 and fid = Hart.get hart 16 in
          match Mir_sbi.Sbi.arg_count ~ext ~fid with
          | Some n -> List.init n (fun i -> 10 + i) @ [ 16; 17 ]
          | None -> [ 16; 17 ] (* unknown call: expose only IDs *)
        end
        else []
      in
      for r = 1 to 31 do
        if not (List.mem r keep) then Hart.set hart r 0L
      done
    end
  in
  let on_trap_from_fw (ctx : Policy.ctx) exc =
    match exc with
    | Cause.Load_access_fault | Cause.Store_access_fault
    | Cause.Instr_access_fault ->
        state.violations <- state.violations + 1;
        ctx.Policy.report_violation
          (Printf.sprintf "sandbox: firmware %s at %s"
             (Cause.exc_to_string exc)
             (Mir_util.Bits.to_hex
                (Mir_rv.Csr_file.read_raw ctx.Policy.hart.Hart.csr
                   Mir_rv.Csr_addr.mtval)));
        Policy.Handled
    | _ -> Policy.Pass
  in
  (* Misaligned accesses are emulated in the policy itself so the
     firmware never needs OS register state (paper §5.2). *)
  let on_trap_from_os (ctx : Policy.ctx) exc =
    let emulate ~store =
      match
        Miralis.Offload.try_misaligned
          { ctx.Policy.config with Miralis.Config.offload = true }
          ctx.Policy.machine
          (Miralis.Vfm_stats.create ())
          ctx.Policy.hart ~store
      with
      | Miralis.Offload.Resume_at pc ->
          ctx.Policy.return_to_os ~pc;
          Policy.Handled
      | Miralis.Offload.Not_handled -> Policy.Pass
    in
    match exc with
    | Cause.Load_misaligned -> emulate ~store:false
    | Cause.Store_misaligned -> emulate ~store:true
    | _ -> Policy.Pass
  in
  let policy =
    {
      (Policy.default "sandbox") with
      Policy.pmp_entries;
      on_switch_to_os;
      on_switch_to_fw;
      on_ecall_from_os;
      on_trap_from_fw;
      on_trap_from_os;
    }
  in
  (policy, state)
