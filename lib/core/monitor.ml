module Bits = Mir_util.Bits
module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Clint = Mir_rv.Clint
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Csr_spec = Mir_rv.Csr_spec
module Cause = Mir_rv.Cause
module Priv = Mir_rv.Priv
module Instr = Mir_rv.Instr
module Vmem = Mir_rv.Vmem
module Pmp = Mir_rv.Pmp
module Ms = Csr_spec.Mstatus

type t = {
  config : Config.t;
  machine : Machine.t;
  vharts : Vhart.t array;
  vclint : Vclint.t;
  vplic : Vplic.t;
  mutable policy : Policy.t;
  stats : Vfm_stats.t;
  mutable violation : string option;
  mutable tracer : Mir_trace.Tracer.t option;
}

let charge t hart n = ignore t; Machine.charge hart n
let vhart t (hart : Hart.t) = t.vharts.(hart.Hart.id)

(* Monitor-level trace events (world switches, PMP reinstalls, vtraps,
   SBI calls) interleave with the machine-level stream emitted by the
   same tracer. *)
let emit_event t hart kind =
  match t.tracer with
  | Some tr -> Mir_trace.Tracer.emit tr hart kind
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Resuming the hart                                                   *)
(* ------------------------------------------------------------------ *)

(* Miralis leaves its handler with an mret: the physical mstatus pop,
   returning the privilege it restores. *)
let phys_mret (hart : Hart.t) =
  let csr = hart.Hart.csr in
  let m = Csr_file.read_raw csr Csr_addr.mstatus in
  Csr_file.write_raw csr Csr_addr.mstatus (Hart.Xfer_c.mret_mstatus m);
  Hart.Xfer_c.mret_target_priv m

let return_to_os t (hart : Hart.t) ~pc =
  let priv = phys_mret hart in
  (* A trap that interrupted M-mode cannot belong to the OS world;
     downgrade to S defensively. *)
  let priv = if priv = Priv.M then Priv.S else priv in
  ignore t;
  Machine.resume hart ~pc ~priv

let enter_firmware t (hart : Hart.t) ~pc =
  ignore (phys_mret hart);
  ignore t;
  Machine.resume hart ~pc ~priv:Priv.U

(* ------------------------------------------------------------------ *)
(* Policy context                                                      *)
(* ------------------------------------------------------------------ *)

let rec policy_ctx t hart =
  {
    Policy.machine = t.machine;
    hart;
    vhart = vhart t hart;
    config = t.config;
    stats = t.stats;
    report_violation =
      (fun msg ->
        t.violation <- Some msg;
        Logs.err (fun m -> m "miralis: policy violation: %s" msg);
        t.machine.Machine.poweroff <- true);
    reinstall_pmp = (fun () -> reinstall_pmp t hart);
    reinstall_pmp_all = (fun () -> reinstall_pmp_all t hart);
    return_to_os = (fun ~pc -> return_to_os t hart ~pc);
  }

and policy_pmp_entries t hart =
  t.policy.Policy.pmp_entries (policy_ctx t hart)

and reinstall_pmp t hart =
  Vpmp.install t.config (vhart t hart) hart ~policy:(policy_pmp_entries t hart);
  emit_event t hart Mir_trace.Event.Pmp_reinstall

(* Policy entries changed for every hart (enclave create/destroy): the
   current hart reinstalls inline; siblings are reinstalled in the
   same step — except under the Pmp_handoff_window injected bug,
   where the sibling reinstalls land [race_window] steps late,
   reproducing the cross-hart PMP handoff window the schedule
   explorer's oracles are built to catch. *)
and reinstall_pmp_all t hart =
  reinstall_pmp t hart;
  let siblings m =
    Array.iter
      (fun h ->
        if h.Hart.id <> hart.Hart.id then begin
          reinstall_pmp t h;
          t.stats.Vfm_stats.pmp_remote_reinstalls <-
            t.stats.Vfm_stats.pmp_remote_reinstalls + 1
        end)
      m.Machine.harts
  in
  match t.machine.Machine.race_bug with
  | Some Machine.Pmp_handoff_window ->
      Machine.defer t.machine ~ticks:Machine.race_window siblings
  | _ -> siblings t.machine

(* ------------------------------------------------------------------ *)
(* World switches                                                      *)
(* ------------------------------------------------------------------ *)

let switch_to_fw t hart vh =
  assert (vh.Vhart.world = Vhart.Os);
  t.policy.Policy.on_switch_to_fw (policy_ctx t hart);
  (* The world flips before the PMP layout is derived: both the Vpmp
     builder and the policy's pmp_entries must see the new world. *)
  vh.Vhart.world <- Vhart.Firmware;
  World.to_fw t.config vh hart ~policy:(policy_pmp_entries t hart);
  t.stats.Vfm_stats.world_switches <- t.stats.Vfm_stats.world_switches + 1;
  emit_event t hart (Mir_trace.Event.World_switch { to_fw = true })

let switch_to_os t hart vh =
  assert (vh.Vhart.world = Vhart.Firmware);
  t.policy.Policy.on_switch_to_os (policy_ctx t hart);
  vh.Vhart.world <- Vhart.Os;
  World.to_os t.config vh hart ~policy:(policy_pmp_entries t hart);
  emit_event t hart (Mir_trace.Event.World_switch { to_fw = false })

(* ------------------------------------------------------------------ *)
(* Virtual trap injection                                              *)
(* ------------------------------------------------------------------ *)

let inject_vtrap t hart (vh : Vhart.t) cause ~tval ~epc ~mpp =
  assert (vh.Vhart.world = Vhart.Firmware);
  emit_event t hart (Mir_trace.Event.Vtrap { cause; tval });
  let pc = Emulator.vtrap_entry vh cause ~tval ~epc ~mpp in
  t.stats.Vfm_stats.vtraps <- t.stats.Vfm_stats.vtraps + 1;
  enter_firmware t hart ~pc

(* Re-inject an OS trap into the virtual firmware: world switch, then
   deliver with the privilege level hardware recorded in MPP. *)
let reinject_from_os t hart vh cause ~tval =
  let epc = Csr_file.read_raw hart.Hart.csr Csr_addr.mepc in
  let mpp = Ms.get_mpp (Csr_file.read_raw hart.Hart.csr Csr_addr.mstatus) in
  switch_to_fw t hart vh;
  inject_vtrap t hart vh cause ~tval ~epc ~mpp

(* ------------------------------------------------------------------ *)
(* Virtual interrupt state                                             *)
(* ------------------------------------------------------------------ *)

let sync_vmip t (vh : Vhart.t) =
  let h = vh.Vhart.id in
  let clint = t.machine.Machine.clint in
  let mtip = Vclint.vmtip t.vclint clint h in
  if mtip then begin
    (* Latch: stop the physical comparator from re-firing for the
       virtual deadline while the firmware leaves it pending. *)
    Vclint.disarm_virtual t.vclint h;
    Vclint.program_physical t.vclint clint h
  end;
  Csr_file.set_mip_bits vh.Vhart.csr Csr_spec.Irq.mtip mtip;
  Csr_file.set_mip_bits vh.Vhart.csr Csr_spec.Irq.msip
    (Vclint.vmsip t.vclint h)

(* ------------------------------------------------------------------ *)
(* Firmware-world trap handling                                        *)
(* ------------------------------------------------------------------ *)

let halt t msg =
  t.violation <- Some msg;
  Logs.err (fun m -> m "miralis: %s" msg);
  t.machine.Machine.poweroff <- true

let fetch_fw_instr t (hart : Hart.t) =
  (* The firmware executes with bare addressing: its pc is physical. *)
  let epc = Csr_file.read_raw hart.Hart.csr Csr_addr.mepc in
  match Machine.phys_load t.machine epc 4 with
  | None -> None
  | Some w -> Mir_rv.Decode.decode (Int64.to_int w)

let apply_emulator_outcome t hart vh epc (out : Emulator.outcome) =
  if out.Emulator.pmp_dirty then reinstall_pmp t hart;
  t.stats.Vfm_stats.emulated_instrs <- t.stats.Vfm_stats.emulated_instrs + 1;
  charge t hart t.config.Config.cost.Cost.emulate_instr;
  match out.Emulator.action with
  | Emulator.Next -> enter_firmware t hart ~pc:(Int64.add epc 4L)
  | Emulator.Jump pc -> enter_firmware t hart ~pc
  | Emulator.Exit_to_os { pc; priv } ->
      switch_to_os t hart vh;
      if not vh.Vhart.entered_s then vh.Vhart.entered_s <- true;
      ignore (phys_mret hart);
      Machine.resume hart ~pc ~priv
  | Emulator.Vtrap (exc, tval) ->
      inject_vtrap t hart vh (Cause.Exception exc) ~tval ~epc ~mpp:Priv.M
  | Emulator.Wfi -> begin
      sync_vmip t vh;
      match Emulator.check_virtual_interrupt t.config vh with
      | Some _ ->
          (* an interrupt is already pending: wfi completes at once *)
          enter_firmware t hart ~pc:(Int64.add epc 4L)
      | None ->
          hart.Hart.wfi <- true;
          enter_firmware t hart ~pc:(Int64.add epc 4L)
    end
  | Emulator.Unsupported ->
      halt t "emulator invoked on a non-privileged instruction"

let emulator_ctx _t (hart : Hart.t) epc =
  {
    Emulator.read_gpr = Hart.get hart;
    write_gpr = Hart.set hart;
    pc = epc;
    cycles = Int64.of_int hart.Hart.cycles;
    instret = Int64.of_int hart.Hart.instret;
    phys_custom_read = (fun a -> Csr_file.read_raw hart.Hart.csr a);
    phys_custom_write = (fun a v -> Csr_file.write_raw hart.Hart.csr a v);
  }

(* MPRV emulation: perform an access through the OS page tables on the
   firmware's behalf (paper §4.2), protection-checked at MPP's
   privilege against the *virtual* PMP, as architected. *)
let mprv_access t (vh : Vhart.t) vaddr ~size ~write =
  let v = vh.Vhart.csr in
  let vms = Csr_file.read_raw v Csr_addr.mstatus in
  let priv = Ms.get_mpp vms in
  let access, perm, fault =
    match write with
    | None -> (Vmem.Load, Pmp.Read, Cause.Load_access_fault)
    | Some _ -> (Vmem.Store, Pmp.Write, Cause.Store_access_fault)
  in
  match
    Vmem.On_bus.translate_leaf t.machine.Machine.bus
      ~satp:(Csr_file.read_raw v Csr_addr.satp)
      ~priv ~sum:(Bits.test vms Ms.sum) ~mxr:(Bits.test vms Ms.mxr) access
      vaddr
  with
  | Error e -> Error e
  | Ok { Vmem.phys; _ }
    when not
           (Pmp.check ~entries:(Csr_file.pmp_entries v) ~priv perm ~addr:phys
              ~size:1) ->
      Error fault
  | Ok { Vmem.phys; _ } -> (
      match write with
      | None ->
          Option.to_result ~none:fault
            (Machine.phys_load t.machine phys size)
      | Some w ->
          if Machine.phys_store t.machine phys size w then Ok 0L
          else Error fault)

(* A memory fault by the firmware: virtual-device emulation, the MPRV
   trick, or (by default) re-injection as the firmware's own fault. *)
let handle_fw_memory_fault t hart vh exc =
  let csr = hart.Hart.csr in
  let epc = Csr_file.read_raw csr Csr_addr.mepc in
  let vaddr = Csr_file.read_raw csr Csr_addr.mtval in
  let in_vdev =
    Bits.ule Vpmp.vdev_base vaddr
    && Bits.ult vaddr (Int64.add Vpmp.vdev_base Vpmp.vdev_size)
  in
  let in_vplic =
    t.config.Config.virtualize_plic
    && Bits.ule Vpmp.plic_base vaddr
    && Bits.ult vaddr (Int64.add Vpmp.plic_base Vpmp.plic_size)
  in
  let vtrap exc =
    inject_vtrap t hart vh (Cause.Exception exc) ~tval:vaddr ~epc ~mpp:Priv.M
  in
  (* Emulate the faulting load or store through [access]; anything
     else is the firmware's own fault. *)
  let emulate instr access =
    match Emulator.load_store hart instr ~access with
    | Some (Ok ()) -> enter_firmware t hart ~pc:(Int64.add epc 4L)
    | Some (Error e) -> vtrap e
    | None -> vtrap exc
  in
  match fetch_fw_instr t hart with
  | None -> vtrap exc
  | Some instr ->
      if in_vplic then begin
        (* experimental virtual PLIC emulation *)
        charge t hart t.config.Config.cost.Cost.vclint_access;
        emulate instr (fun ~size ~write ->
            Option.to_result ~none:exc
              (Vplic.emulate_access t.vplic t.machine.Machine.plic
                 ~hart:hart.Hart.id
                 ~offset:(Int64.sub vaddr Vpmp.plic_base)
                 ~size ~write))
      end
      else if in_vdev then begin
        (* Virtual CLINT access. *)
        t.stats.Vfm_stats.vclint_accesses <-
          t.stats.Vfm_stats.vclint_accesses + 1;
        charge t hart t.config.Config.cost.Cost.vclint_access;
        emulate instr (fun ~size ~write ->
            match
              Vclint.emulate_access t.vclint t.machine.Machine.clint
                ~offset:(Int64.sub vaddr Vpmp.vdev_base)
                ~size ~write
            with
            | Some v ->
                if Option.is_some write then sync_vmip t vh;
                Ok v
            | None -> Error exc)
      end
      else if vh.Vhart.mprv_active then
        emulate instr (mprv_access t vh vaddr)
      else begin
        match t.policy.Policy.on_trap_from_fw (policy_ctx t hart) exc with
        | Policy.Handled -> ()
        | Policy.Pass -> vtrap exc
      end

let handle_from_fw t hart vh exc =
  let csr = hart.Hart.csr in
  let epc = Csr_file.read_raw csr Csr_addr.mepc in
  let vtrap exc ~tval =
    inject_vtrap t hart vh (Cause.Exception exc) ~tval ~epc ~mpp:Priv.M
  in
  match exc with
  | Cause.Illegal_instr -> begin
      let bits = Csr_file.read_raw csr Csr_addr.mtval in
      let word = Int64.to_int (Int64.logand bits 0xFFFFFFFFL) in
      match Mir_rv.Decode.decode word with
      | Some instr when Instr.is_privileged instr ->
          let out =
            Emulator.emulate t.config vh (emulator_ctx t hart epc) ~bits:word
              instr
          in
          apply_emulator_outcome t hart vh epc out
      | Some _ | None ->
          (* A genuinely illegal instruction in the firmware: deliver
             the firmware its own illegal-instruction trap. *)
          vtrap exc ~tval:bits
    end
  | Cause.Ecall_from_u -> begin
      (* The firmware's own ecall: virtually this is ecall-from-M. *)
      match t.policy.Policy.on_ecall_from_fw (policy_ctx t hart) with
      | Policy.Handled -> ()
      | Policy.Pass -> vtrap Cause.Ecall_from_m ~tval:0L
    end
  | Cause.Load_access_fault | Cause.Store_access_fault ->
      handle_fw_memory_fault t hart vh exc
  | Cause.Load_misaligned | Cause.Store_misaligned | Cause.Breakpoint
  | Cause.Instr_misaligned | Cause.Instr_access_fault -> begin
      match t.policy.Policy.on_trap_from_fw (policy_ctx t hart) exc with
      | Policy.Handled -> ()
      | Policy.Pass -> vtrap exc ~tval:(Csr_file.read_raw csr Csr_addr.mtval)
    end
  | Cause.Ecall_from_s | Cause.Ecall_from_m | Cause.Instr_page_fault
  | Cause.Load_page_fault | Cause.Store_page_fault ->
      halt t
        (Printf.sprintf "unexpected trap from firmware world: %s"
           (Cause.exc_to_string exc))

(* ------------------------------------------------------------------ *)
(* OS-world trap handling                                              *)
(* ------------------------------------------------------------------ *)

(* An OS ecall goes to the policy, then the offload fast path, then the
   firmware. Any other exception tries the fast path first, then the
   policy, and is re-injected into the firmware only if both pass. *)
let handle_from_os t hart vh exc =
  let reinject ~tval =
    reinject_from_os t hart vh (Cause.Exception exc) ~tval
  in
  match exc with
  | Cause.Ecall_from_s | Cause.Ecall_from_u -> begin
      match t.policy.Policy.on_ecall_from_os (policy_ctx t hart) with
      | Policy.Handled -> ()
      | Policy.Pass -> begin
          let emit_sbi offloaded =
            emit_event t hart
              (Mir_trace.Event.Sbi_call
                 { ext = Hart.get hart 17; fid = Hart.get hart 16; offloaded })
          in
          match Offload.try_ecall t.config t.machine t.vclint t.stats hart with
          | Offload.Resume_at pc ->
              emit_sbi true;
              return_to_os t hart ~pc
          | Offload.Not_handled ->
              emit_sbi false;
              reinject ~tval:0L
        end
    end
  | _ -> begin
      let tval = Csr_file.read_raw hart.Hart.csr Csr_addr.mtval in
      let fast_path =
        match exc with
        | Cause.Illegal_instr ->
            Offload.try_illegal t.config t.machine t.stats hart ~bits:tval
        | Cause.Load_misaligned ->
            Offload.try_misaligned t.config t.machine t.stats hart
              ~store:false
        | Cause.Store_misaligned ->
            Offload.try_misaligned t.config t.machine t.stats hart
              ~store:true
        | _ -> Offload.Not_handled
      in
      match fast_path with
      | Offload.Resume_at pc -> return_to_os t hart ~pc
      | Offload.Not_handled -> begin
          match t.policy.Policy.on_trap_from_os (policy_ctx t hart) exc with
          | Policy.Handled -> ()
          | Policy.Pass -> reinject ~tval
        end
    end

(* ------------------------------------------------------------------ *)
(* M-level interrupts (shared between worlds)                          *)
(* ------------------------------------------------------------------ *)

let handle_interrupt t hart vh (i : Cause.intr) =
  let csr = hart.Hart.csr in
  (* mepc is read at resume time: a policy hook may retarget it (the
     Keystone policy does, when an interrupt lands mid-enclave). *)
  let resume () =
    let epc = Csr_file.read_raw csr Csr_addr.mepc in
    match vh.Vhart.world with
    | Vhart.Os -> return_to_os t hart ~pc:epc
    | Vhart.Firmware -> enter_firmware t hart ~pc:epc
  in
  match t.policy.Policy.on_interrupt (policy_ctx t hart) i with
  | Policy.Handled -> ()
  | Policy.Pass -> begin
      let h = hart.Hart.id in
      let clint = t.machine.Machine.clint in
      match i with
      | Cause.Machine_timer ->
          let now = Clint.mtime clint in
          (if Bits.ule (Vclint.offload_deadline t.vclint h) now then begin
             (* The fast-path deadline fired: deliver STIP to the OS. *)
             Vclint.set_offload_deadline t.vclint h (-1L);
             Vclint.program_physical t.vclint clint h;
             match vh.Vhart.world with
             | Vhart.Os -> Csr_file.set_mip_bits csr Csr_spec.Irq.stip true
             | Vhart.Firmware ->
                 Csr_file.set_mip_bits vh.Vhart.csr Csr_spec.Irq.stip true
           end);
          (* A virtual deadline is latched into vmip by sync_vmip; the
             injection check after this handler delivers it. *)
          resume ()
      | Cause.Machine_software ->
          Clint.set_msip clint h false;
          (if Vclint.os_ipi_pending t.vclint h then begin
             Vclint.set_os_ipi_pending t.vclint h false;
             match vh.Vhart.world with
             | Vhart.Os -> Csr_file.set_mip_bits csr Csr_spec.Irq.ssip true
             | Vhart.Firmware ->
                 Csr_file.set_mip_bits vh.Vhart.csr Csr_spec.Irq.ssip true
           end);
          (if Vclint.rfence_pending t.vclint h then begin
             Vclint.set_rfence_pending t.vclint h false;
             Machine.flush_icache t.machine
           end);
          resume ()
      | Cause.Machine_external | Cause.Supervisor_external
      | Cause.Supervisor_software | Cause.Supervisor_timer ->
          (* S-level interrupts are force-delegated and never reach
             Miralis; M-external is not enabled. *)
          resume ()
    end

(* ------------------------------------------------------------------ *)
(* Top-level dispatch                                                  *)
(* ------------------------------------------------------------------ *)

let handle t (hart : Hart.t) cause =
  let vh = vhart t hart in
  charge t hart t.config.Config.cost.Cost.trap_entry;
  sync_vmip t vh;
  (match cause with
  | Cause.Interrupt i -> begin
      (match vh.Vhart.world with
      | Vhart.Os ->
          t.stats.Vfm_stats.traps_from_os <-
            t.stats.Vfm_stats.traps_from_os + 1
      | Vhart.Firmware ->
          t.stats.Vfm_stats.traps_from_fw <-
            t.stats.Vfm_stats.traps_from_fw + 1);
      handle_interrupt t hart vh i
    end
  | Cause.Exception exc -> begin
      match vh.Vhart.world with
      | Vhart.Os ->
          t.stats.Vfm_stats.traps_from_os <-
            t.stats.Vfm_stats.traps_from_os + 1;
          handle_from_os t hart vh exc
      | Vhart.Firmware ->
          t.stats.Vfm_stats.traps_from_fw <-
            t.stats.Vfm_stats.traps_from_fw + 1;
          handle_from_fw t hart vh exc
    end);
  (* Check for virtual interrupts: a pending-and-enabled virtual
     M-level interrupt preempts whichever world we were about to
     resume (paper §4.1). *)
  (if not t.machine.Machine.poweroff then begin
     sync_vmip t vh;
     match Emulator.check_virtual_interrupt t.config vh with
     | Some i -> begin
         let epc = hart.Hart.pc in
         match vh.Vhart.world with
         | Vhart.Firmware ->
             inject_vtrap t hart vh (Cause.Interrupt i) ~tval:0L ~epc
               ~mpp:Priv.M
         | Vhart.Os ->
             let mpp = hart.Hart.priv in
             switch_to_fw t hart vh;
             inject_vtrap t hart vh (Cause.Interrupt i) ~tval:0L ~epc ~mpp
       end
     | None -> ()
   end);
  charge t hart t.config.Config.cost.Cost.trap_exit

(* Checkpoint support: capture all monitor-owned state (the machine
   itself is snapshotted separately by [Mir_trace.Snapshot]) and
   return the closure that restores it. *)
let save t =
  let vh_states =
    Array.map
      (fun (vh : Vhart.t) ->
        ( Csr_file.dump vh.Vhart.csr,
          vh.Vhart.world,
          vh.Vhart.mprv_active,
          vh.Vhart.entered_s ))
      t.vharts
  in
  let vclint_s = Vclint.save_state t.vclint in
  let vplic_s = Vplic.save_state t.vplic in
  let stats_s = Vfm_stats.save_state t.stats in
  let violation = t.violation in
  fun () ->
    Array.iteri
      (fun i (csrs, world, mprv_active, entered_s) ->
        let vh = t.vharts.(i) in
        Csr_file.restore_dump vh.Vhart.csr csrs;
        vh.Vhart.world <- world;
        vh.Vhart.mprv_active <- mprv_active;
        vh.Vhart.entered_s <- entered_s)
      vh_states;
    Vclint.load_state t.vclint vclint_s;
    Vplic.load_state t.vplic vplic_s;
    Vfm_stats.load_state t.stats stats_s;
    t.violation <- violation

let create ?policy config machine =
  let nharts = Array.length machine.Machine.harts in
  let t =
    {
      config;
      machine;
      vharts = Array.init nharts (fun id -> Vhart.create config ~id);
      vclint = Vclint.create ~nharts;
      vplic = Vplic.create ~nharts ~nsources:8;
      policy = Option.value policy ~default:(Policy.default "none");
      stats = Vfm_stats.create ();
      violation = None;
      tracer = None;
    }
  in
  machine.Machine.mmode_hook <- Some (fun _m hart cause -> handle t hart cause);
  t

let boot t ~fw_entry =
  Array.iter
    (fun hart ->
      let vh = vhart t hart in
      vh.Vhart.world <- Vhart.Firmware;
      Hart.reset hart ~pc:fw_entry;
      Hart.set hart 10 (Int64.of_int hart.Hart.id);
      Hart.set hart 11 0L;
      hart.Hart.priv <- Priv.U;
      (* Well-defined physical state for vM-mode execution. *)
      let p = hart.Hart.csr in
      Csr_file.write_raw p Csr_addr.satp 0L;
      Csr_file.write_raw p Csr_addr.medeleg 0L;
      Csr_file.write_raw p Csr_addr.mideleg 0L;
      Csr_file.write_raw p Csr_addr.mie World.miralis_mie;
      reinstall_pmp t hart)
    t.machine.Machine.harts
