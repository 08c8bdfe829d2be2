(* White-box unit tests for the VFM's subsystems: the emulator, the
   virtual CLINT, PMP multiplexing, world switches, offload handlers
   and configuration derivation. *)

module Bits = Mir_util.Bits
module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Csr_file = Mir_rv.Csr_file
module C = Mir_rv.Csr_addr
module Csr_spec = Mir_rv.Csr_spec
module Priv = Mir_rv.Priv
module Pmp = Mir_rv.Pmp
module Instr = Mir_rv.Instr
module Clint = Mir_rv.Clint
module Config = Miralis.Config
module Vhart = Miralis.Vhart
module Vclint = Miralis.Vclint
module Vpmp = Miralis.Vpmp
module World = Miralis.World
module Emulator = Miralis.Emulator

let host = Machine.default_config
let config () = Config.make ~machine:host ()

let emu_ctx regs =
  {
    Emulator.read_gpr = (fun i -> regs.(i));
    write_gpr = (fun i v -> if i <> 0 then regs.(i) <- v);
    pc = 0x80000000L;
    cycles = 1234L;
    instret = 99L;
    phys_custom_read = (fun _ -> 0xC0L);
    phys_custom_write = (fun _ _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

let test_config_pmp_budget () =
  let cfg = config () in
  (* 8 physical = 4 fixed + 1 policy + 3 virtual *)
  Alcotest.(check int) "vpmp count" 3 (Config.vpmp_count cfg);
  Alcotest.(check int) "reserved" 5 (Config.reserved_pmp_slots cfg);
  (* not enough entries is rejected *)
  Alcotest.(check bool) "too few PMPs rejected" true
    (match
       Config.make
         ~machine:
           {
             host with
             Machine.csr_config =
               { host.Machine.csr_config with Csr_spec.pmp_count = 4 };
           }
         ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* miralis memory sits at the top of RAM *)
  Helpers.check_i64 "miralis base" 0x80F00000L cfg.Config.miralis_base

let test_config_virtual_hardwires_delegation () =
  let cfg = config () in
  Alcotest.(check bool) "vcsr hardwires mideleg" true
    cfg.Config.vcsr_config.Csr_spec.force_s_interrupt_delegation

(* ------------------------------------------------------------------ *)
(* Emulator corner cases                                               *)
(* ------------------------------------------------------------------ *)

let fresh_vhart ?(cfg = config ()) () = Vhart.create cfg ~id:0

let test_emulator_csr_roundtrip () =
  let cfg = config () in
  let vh = fresh_vhart ~cfg () in
  let regs = Array.make 32 0L in
  regs.(5) <- 0xABCDL;
  let instr =
    Instr.Csr { op = Instr.Csrrw; rd = 6; src = Instr.Reg 5; csr = C.mscratch }
  in
  let out = Emulator.emulate cfg vh (emu_ctx regs) ~bits:0 instr in
  Alcotest.(check bool) "next" true (out.Emulator.action = Emulator.Next);
  Helpers.check_i64 "old value read" 0L regs.(6);
  Helpers.check_i64 "stored" 0xABCDL (Csr_file.read_raw vh.Vhart.csr C.mscratch)

let test_emulator_read_only_csr_traps () =
  let cfg = config () in
  let vh = fresh_vhart ~cfg () in
  let regs = Array.make 32 1L in
  let instr =
    Instr.Csr { op = Instr.Csrrw; rd = 0; src = Instr.Reg 5; csr = C.mvendorid }
  in
  let out = Emulator.emulate cfg vh (emu_ctx regs) ~bits:0xDEAD instr in
  Alcotest.(check bool) "illegal vtrap" true
    (out.Emulator.action
    = Emulator.Vtrap (Mir_rv.Cause.Illegal_instr, 0xDEADL))

let test_emulator_counters () =
  let cfg = config () in
  let vh = fresh_vhart ~cfg () in
  let regs = Array.make 32 0L in
  let read csr rd =
    ignore
      (Emulator.emulate cfg vh (emu_ctx regs) ~bits:0
         (Instr.Csr { op = Instr.Csrrs; rd; src = Instr.Reg 0; csr }))
  in
  read C.mcycle 5;
  read C.minstret 6;
  read C.cycle 7;
  Helpers.check_i64 "mcycle" 1234L regs.(5);
  Helpers.check_i64 "minstret" 99L regs.(6);
  Helpers.check_i64 "cycle" 1234L regs.(7)

let test_emulator_time_csr_traps () =
  (* the virtual hart has no time CSR (like the boards): the firmware's
     own rdtime must trap to its own handler *)
  let cfg = config () in
  let vh = fresh_vhart ~cfg () in
  let regs = Array.make 32 0L in
  let out =
    Emulator.emulate cfg vh (emu_ctx regs) ~bits:0xC0102573
      (Instr.Csr { op = Instr.Csrrs; rd = 10; src = Instr.Reg 0; csr = C.time })
  in
  Alcotest.(check bool) "vtrap illegal" true
    (match out.Emulator.action with
    | Emulator.Vtrap (Mir_rv.Cause.Illegal_instr, _) -> true
    | _ -> false)

let test_emulator_custom_csr_passthrough () =
  let cfg =
    Config.make ~allowed_custom_csrs:[ C.custom0 ]
      ~machine:
        {
          host with
          Machine.csr_config =
            { host.Machine.csr_config with Csr_spec.custom_csrs = [ C.custom0 ] };
        }
      ()
  in
  let vh = fresh_vhart ~cfg () in
  let regs = Array.make 32 0L in
  let written = ref None in
  let ctx =
    { (emu_ctx regs) with
      Emulator.phys_custom_write = (fun a v -> written := Some (a, v)) }
  in
  regs.(5) <- 0x55L;
  let out =
    Emulator.emulate cfg vh ctx ~bits:0
      (Instr.Csr { op = Instr.Csrrw; rd = 6; src = Instr.Reg 5; csr = C.custom0 })
  in
  Alcotest.(check bool) "next" true (out.Emulator.action = Emulator.Next);
  Helpers.check_i64 "read from hardware" 0xC0L regs.(6);
  Alcotest.(check bool) "write reached hardware" true
    (!written = Some (C.custom0, 0x55L))

let test_emulator_mret_stays_when_mpp_m () =
  let cfg = config () in
  let vh = fresh_vhart ~cfg () in
  let v = vh.Vhart.csr in
  let regs = Array.make 32 0L in
  let ms = Csr_spec.Mstatus.set_mpp 0L Priv.M in
  let ms = Bits.set ms Csr_spec.Mstatus.mpie in
  Csr_file.write_raw v C.mstatus ms;
  Csr_file.write_raw v C.mepc 0x80001000L;
  let out = Emulator.emulate cfg vh (emu_ctx regs) ~bits:0 Instr.Mret in
  Alcotest.(check bool) "jump, no world switch" true
    (out.Emulator.action = Emulator.Jump 0x80001000L);
  let ms' = Csr_file.read_raw v C.mstatus in
  Alcotest.(check bool) "MIE restored from MPIE" true
    (Bits.test ms' Csr_spec.Mstatus.mie);
  Alcotest.(check bool) "MPIE set" true (Bits.test ms' Csr_spec.Mstatus.mpie);
  Helpers.check_i64 "MPP cleared to U" 0L
    (Bits.extract ms' ~lo:11 ~hi:12)

let test_emulator_mret_exits_when_mpp_s () =
  let cfg = config () in
  let vh = fresh_vhart ~cfg () in
  let v = vh.Vhart.csr in
  let regs = Array.make 32 0L in
  Csr_file.write_raw v C.mstatus (Csr_spec.Mstatus.set_mpp 0L Priv.S);
  Csr_file.write_raw v C.mepc 0x80402000L;
  let out = Emulator.emulate cfg vh (emu_ctx regs) ~bits:0 Instr.Mret in
  Alcotest.(check bool) "exit to OS at S" true
    (out.Emulator.action
    = Emulator.Exit_to_os { pc = 0x80402000L; priv = Priv.S })

let test_emulator_mprv_tracking () =
  let cfg = config () in
  let vh = fresh_vhart ~cfg () in
  let regs = Array.make 32 0L in
  (* set MPP=S then MPRV: the emulation flag engages and the PMP is
     marked dirty *)
  regs.(5) <- Csr_spec.Mstatus.set_mpp 0L Priv.S;
  ignore
    (Emulator.emulate cfg vh (emu_ctx regs) ~bits:0
       (Instr.Csr { op = Instr.Csrrw; rd = 0; src = Instr.Reg 5; csr = C.mstatus }));
  Alcotest.(check bool) "not yet" false vh.Vhart.mprv_active;
  regs.(6) <- Bits.set 0L Csr_spec.Mstatus.mprv;
  let out =
    Emulator.emulate cfg vh (emu_ctx regs) ~bits:0
      (Instr.Csr { op = Instr.Csrrs; rd = 0; src = Instr.Reg 6; csr = C.mstatus })
  in
  Alcotest.(check bool) "mprv active" true vh.Vhart.mprv_active;
  Alcotest.(check bool) "pmp dirty" true out.Emulator.pmp_dirty;
  (* mret to S clears MPRV *)
  Csr_file.write_raw vh.Vhart.csr C.mepc 0x80400000L;
  let out2 = Emulator.emulate cfg vh (emu_ctx regs) ~bits:0 Instr.Mret in
  Alcotest.(check bool) "mprv off after mret" false vh.Vhart.mprv_active;
  Alcotest.(check bool) "pmp dirty again" true out2.Emulator.pmp_dirty

let test_emulator_unsupported () =
  let cfg = config () in
  let vh = fresh_vhart ~cfg () in
  let regs = Array.make 32 0L in
  let out =
    Emulator.emulate cfg vh (emu_ctx regs) ~bits:0
      (Instr.Op (Instr.Add, 1, 2, 3))
  in
  Alcotest.(check bool) "unsupported" true
    (out.Emulator.action = Emulator.Unsupported)

(* The load/store decoder shared by the offload and the monitor's
   device and MPRV emulation: the width gives the access size, the
   signedness the extension into rd, and a fault leaves rd alone. *)
let test_emulator_load_store () =
  let hart = Hart.create Csr_spec.default_config ~id:0 in
  let seen = ref [] in
  let access v ~size ~write =
    seen := (size, write) :: !seen;
    v
  in
  let load width unsigned =
    Instr.Load { width; unsigned; rd = 5; rs1 = 1; imm = 0L }
  in
  let run instr v = Emulator.load_store hart instr ~access:(access v) in
  Alcotest.(check bool)
    "lw" true
    (run (load Instr.W false) (Ok 0xFFFFFFFFL) = Some (Ok ()));
  Helpers.check_i64 "lw sign-extends" (-1L) (Hart.get hart 5);
  ignore (run (load Instr.W true) (Ok 0xFFFFFFFFL));
  Helpers.check_i64 "lwu zero-extends" 0xFFFFFFFFL (Hart.get hart 5);
  ignore (run (load Instr.H false) (Ok 0x8000L));
  Helpers.check_i64 "lh sign-extends" (-0x8000L) (Hart.get hart 5);
  Alcotest.(check bool) "fault" true
    (run (load Instr.D false) (Error 7) = Some (Error 7));
  Helpers.check_i64 "fault leaves rd" (-0x8000L) (Hart.get hart 5);
  Hart.set hart 6 0x1122334455667788L;
  ignore
    (run
       (Instr.Store { width = Instr.B; rs2 = 6; rs1 = 1; imm = 0L })
       (Ok 0L));
  Alcotest.(check bool) "sizes and store value" true
    (!seen
    = [
        (1, Some 0x1122334455667788L); (8, None); (2, None); (4, None);
        (4, None);
      ]);
  Alcotest.(check bool) "not an access" true (run Instr.Fence (Ok 0L) = None)

(* ------------------------------------------------------------------ *)
(* Virtual CLINT                                                       *)
(* ------------------------------------------------------------------ *)

let test_vclint_timer_multiplexing () =
  let vc = Vclint.create ~nharts:2 in
  let clint = Clint.create ~nharts:2 in
  Clint.set_mtime clint 1000L;
  (* firmware arms its timer at 2000, the offload path at 1500: the
     physical comparator takes the earlier *)
  Vclint.set_vmtimecmp vc 0 2000L;
  Vclint.set_offload_deadline vc 0 1500L;
  Vclint.program_physical vc clint 0;
  Helpers.check_i64 "physical = min" 1500L (Clint.mtimecmp clint 0);
  (* virtual MTIP line *)
  Alcotest.(check bool) "not due" false (Vclint.vmtip vc clint 0);
  Clint.set_mtime clint 2000L;
  Alcotest.(check bool) "due" true (Vclint.vmtip vc clint 0);
  (* disarming stops the physical comparator from re-firing *)
  Vclint.disarm_virtual vc 0;
  Vclint.set_offload_deadline vc 0 (-1L);
  Vclint.program_physical vc clint 0;
  Helpers.check_i64 "disarmed" (-1L) (Clint.mtimecmp clint 0);
  (* but the virtual line stays pending *)
  Alcotest.(check bool) "virtual MTIP latched" true (Vclint.vmtip vc clint 0)

let test_vclint_mmio_emulation () =
  let vc = Vclint.create ~nharts:2 in
  let clint = Clint.create ~nharts:2 in
  Clint.set_mtime clint 7777L;
  (* mtime reads pass through to the physical clock *)
  Alcotest.(check bool) "mtime read" true
    (Vclint.emulate_access vc clint ~offset:Clint.mtime_offset ~size:8
       ~write:None
    = Some 7777L);
  (* msip hits virtual state, not the physical device *)
  ignore
    (Vclint.emulate_access vc clint ~offset:(Clint.msip_offset 1) ~size:4
       ~write:(Some 1L));
  Alcotest.(check bool) "vmsip set" true (Vclint.vmsip vc 1);
  Alcotest.(check bool) "physical msip untouched" false (Clint.msip clint 1);
  (* mtimecmp 32-bit halves *)
  ignore
    (Vclint.emulate_access vc clint ~offset:(Clint.mtimecmp_offset 0) ~size:4
       ~write:(Some 0x11111111L));
  ignore
    (Vclint.emulate_access vc clint
       ~offset:(Int64.add (Clint.mtimecmp_offset 0) 4L)
       ~size:4 ~write:(Some 0x22222222L));
  Helpers.check_i64 "halves merged" 0x2222222211111111L (Vclint.vmtimecmp vc 0);
  (* out-of-window offsets are rejected *)
  Alcotest.(check bool) "bogus offset" true
    (Vclint.emulate_access vc clint ~offset:0x9000L ~size:8 ~write:None = None)

(* ------------------------------------------------------------------ *)
(* Virtual PMP layout                                                  *)
(* ------------------------------------------------------------------ *)

let test_vpmp_layout () =
  let cfg = config () in
  let vh = fresh_vhart ~cfg () in
  vh.Vhart.world <- Vhart.Firmware;
  let entries = Vpmp.build cfg vh ~policy:[] in
  Alcotest.(check int) "fills the physical budget" 8 (Array.length entries);
  (* entry 0 protects Miralis: a deny entry covering miralis_base *)
  (match Pmp.range ~prev_addr:0L entries.(0) with
  | Some (lo, _) -> Helpers.check_i64 "miralis first" cfg.Config.miralis_base lo
  | None -> Alcotest.fail "entry 0 inactive");
  Alcotest.(check bool) "entry 0 denies" true
    (not entries.(0).Pmp.r && not entries.(0).Pmp.w);
  (* the zero-anchor precedes the vPMP block with address 0 *)
  let anchor = entries.(2 + cfg.Config.policy_pmp_slots) in
  Helpers.check_i64 "anchor addr" 0L anchor.Pmp.addr;
  Alcotest.(check bool) "anchor off" true (anchor.Pmp.a = Pmp.Off);
  (* firmware world: the catch-all grants RWX over everything *)
  let ca = entries.(7) in
  Alcotest.(check bool) "catch-all rwx" true
    (ca.Pmp.r && ca.Pmp.w && ca.Pmp.x && ca.Pmp.a = Pmp.Napot);
  (* OS world: the catch-all is off *)
  vh.Vhart.world <- Vhart.Os;
  let entries_os = Vpmp.build cfg vh ~policy:[] in
  Alcotest.(check bool) "catch-all off for OS" true
    (entries_os.(7).Pmp.a = Pmp.Off)

let test_vpmp_mprv_execute_only () =
  let cfg = config () in
  let vh = fresh_vhart ~cfg () in
  vh.Vhart.world <- Vhart.Firmware;
  vh.Vhart.mprv_active <- true;
  (* give the firmware one unlocked RWX ventry *)
  Csr_file.write vh.Vhart.csr (C.pmpaddr 0) 0x20100000L;
  Csr_file.write vh.Vhart.csr (C.pmpcfg 0) 0x1FL;
  let entries = Vpmp.build cfg vh ~policy:[] in
  let ca = entries.(7) in
  Alcotest.(check bool) "catch-all X-only" true
    (ca.Pmp.x && (not ca.Pmp.r) && not ca.Pmp.w);
  (* the promoted ventry is also X-only during MPRV emulation *)
  let ve = entries.(2 + cfg.Config.policy_pmp_slots + 1) in
  Alcotest.(check bool) "ventry X-only" true
    (ve.Pmp.x && (not ve.Pmp.r) && not ve.Pmp.w)

let test_vpmp_locked_entries_verbatim () =
  let cfg = config () in
  let vh = fresh_vhart ~cfg () in
  vh.Vhart.world <- Vhart.Firmware;
  Csr_file.write vh.Vhart.csr (C.pmpaddr 0) 0x20100000L;
  Csr_file.write vh.Vhart.csr (C.pmpcfg 0) 0x99L (* locked NAPOT R *);
  let entries = Vpmp.build cfg vh ~policy:[] in
  let ve = entries.(2 + cfg.Config.policy_pmp_slots + 1) in
  Alcotest.(check bool) "locked entry keeps perms" true
    (ve.Pmp.l && ve.Pmp.r && (not ve.Pmp.w) && not ve.Pmp.x)

(* ------------------------------------------------------------------ *)
(* World switches                                                      *)
(* ------------------------------------------------------------------ *)

let test_world_switch_roundtrip () =
  let cfg = config () in
  let vh = fresh_vhart ~cfg () in
  let hart = Hart.create host.Machine.csr_config ~id:0 in
  let p = hart.Hart.csr and v = vh.Vhart.csr in
  (* OS state in the physical registers *)
  Csr_file.write_raw p C.stvec 0x80405000L;
  Csr_file.write_raw p C.satp 0x8000000000080400L;
  Csr_file.write_raw p C.sscratch 0x1234L;
  Csr_file.set_mip_bits p Csr_spec.Irq.ssip true;
  vh.Vhart.world <- Vhart.Firmware;
  World.to_fw cfg vh hart ~policy:[];
  (* saved into the virtual copies *)
  Helpers.check_i64 "stvec saved" 0x80405000L (Csr_file.read_raw v C.stvec);
  Helpers.check_i64 "satp saved" 0x8000000000080400L
    (Csr_file.read_raw v C.satp);
  Alcotest.(check bool) "SSIP saved" true
    (Bits.test (Csr_file.read_raw v C.mip) 1);
  (* physical well-defined values *)
  Helpers.check_i64 "phys satp bare" 0L (Csr_file.read_raw p C.satp);
  Helpers.check_i64 "phys medeleg 0" 0L (Csr_file.read_raw p C.medeleg);
  Helpers.check_i64 "phys mie = miralis" World.miralis_mie
    (Csr_file.read_raw p C.mie);
  Alcotest.(check bool) "phys SSIP cleared" false
    (Bits.test (Csr_file.read_raw p C.mip) 1);
  (* firmware updates its virtual S state, then we switch back *)
  Csr_file.write_raw v C.stvec 0x80406000L;
  Csr_file.write_raw v C.medeleg 0xB109L;
  vh.Vhart.world <- Vhart.Os;
  World.to_os cfg vh hart ~policy:[];
  Helpers.check_i64 "stvec installed" 0x80406000L (Csr_file.read_raw p C.stvec);
  Helpers.check_i64 "satp restored" 0x8000000000080400L
    (Csr_file.read_raw p C.satp);
  Helpers.check_i64 "medeleg live" 0xB109L (Csr_file.read_raw p C.medeleg);
  Alcotest.(check bool) "SSIP restored" true
    (Bits.test (Csr_file.read_raw p C.mip) 1);
  Helpers.check_i64 "sscratch survived the round trip" 0x1234L
    (Csr_file.read_raw p C.sscratch)

let test_world_swap_set_respects_extensions () =
  Alcotest.(check bool) "base set has satp" true
    (List.mem C.satp (World.swap_csrs Csr_spec.default_config));
  Alcotest.(check bool) "no stimecmp without sstc" false
    (List.mem C.stimecmp (World.swap_csrs Csr_spec.default_config));
  let cfg =
    { Csr_spec.default_config with Csr_spec.has_sstc = true; has_h = true }
  in
  Alcotest.(check bool) "stimecmp with sstc" true
    (List.mem C.stimecmp (World.swap_csrs cfg));
  Alcotest.(check bool) "hgatp with H" true
    (List.mem C.hgatp (World.swap_csrs cfg))

(* ------------------------------------------------------------------ *)
(* Offload handlers                                                    *)
(* ------------------------------------------------------------------ *)

let offload_setup () =
  let m = Machine.create host in
  let hart = m.Machine.harts.(0) in
  let cfg = config () in
  let vclint = Vclint.create ~nharts:1 in
  let stats = Miralis.Vfm_stats.create () in
  (m, hart, cfg, vclint, stats)

let test_offload_set_timer () =
  let m, hart, cfg, vclint, stats = offload_setup () in
  Csr_file.write_raw hart.Hart.csr C.mepc 0x80400000L;
  Csr_file.set_mip_bits hart.Hart.csr Csr_spec.Irq.stip true;
  Hart.set hart 17 Mir_sbi.Sbi.ext_time;
  Hart.set hart 16 0L;
  Hart.set hart 10 5000L;
  (match Miralis.Offload.try_ecall cfg m vclint stats hart with
  | Miralis.Offload.Resume_at pc -> Helpers.check_i64 "skips ecall" 0x80400004L pc
  | Miralis.Offload.Not_handled -> Alcotest.fail "not handled");
  Helpers.check_i64 "deadline armed" 5000L (Vclint.offload_deadline vclint 0);
  Helpers.check_i64 "physical comparator" 5000L (Clint.mtimecmp m.Machine.clint 0);
  Alcotest.(check bool) "STIP cleared" false
    (Bits.test (Csr_file.read_raw hart.Hart.csr C.mip) 5);
  Alcotest.(check int) "counted" 1 stats.Miralis.Vfm_stats.offload_set_timer

(* A guest-chosen hart mask must never index past the vCLINT: a mask
   naming a hart outside [0, nharts) — negative or huge bases
   included — is answered with SBI_ERR_INVALID_PARAM and posts
   nothing; base -1 and in-range masks post exactly their targets. *)
let test_offload_hart_mask_bounds () =
  let machine = { host with Machine.nharts = 2; ram_size = 64 * 1024 } in
  let cfg = Config.make ~machine () in
  List.iter
    (fun (name, ext, fid, pending) ->
      List.iter
        (fun (mask, base, expect) ->
          let m = Machine.create machine in
          let hart = m.Machine.harts.(0) in
          let vclint = Vclint.create ~nharts:2 in
          let stats = Miralis.Vfm_stats.create () in
          Csr_file.write_raw hart.Hart.csr C.mepc 0x80400000L;
          Hart.set hart 17 ext;
          Hart.set hart 16 fid;
          Hart.set hart 10 mask;
          Hart.set hart 11 base;
          let case = Printf.sprintf "%s mask=%Ld base=%Ld" name mask base in
          (match Miralis.Offload.try_ecall cfg m vclint stats hart with
          | Miralis.Offload.Resume_at pc ->
              Helpers.check_i64 (case ^ ": skips ecall") 0x80400004L pc
          | Miralis.Offload.Not_handled ->
              Alcotest.fail (case ^ ": not handled"));
          Helpers.check_i64 (case ^ ": a0")
            (if expect = None then Mir_sbi.Sbi.err_invalid_param
             else Mir_sbi.Sbi.success)
            (Hart.get hart 10);
          let targets = Option.value expect ~default:[] in
          for h = 0 to 1 do
            let posted = List.mem h targets in
            Alcotest.(check bool)
              (Printf.sprintf "%s: hart %d flag" case h)
              posted (pending vclint h);
            Alcotest.(check bool)
              (Printf.sprintf "%s: hart %d msip" case h)
              posted
              (Clint.msip m.Machine.clint h)
          done)
        [
          (1L, -2L, None);
          (1L, Int64.max_int, None);
          (1L, 2L, None);
          (3L, 1L, None);
          (Int64.min_int, 0L, None);
          (0L, 5L, Some []);
          (1L, 0L, Some [ 0 ]);
          (2L, 0L, Some [ 1 ]);
          (1L, 1L, Some [ 1 ]);
          (3L, 0L, Some [ 0; 1 ]);
          (0L, -1L, Some [ 0; 1 ]);
        ])
    [
      ( "ipi",
        Mir_sbi.Sbi.ext_ipi,
        Mir_sbi.Sbi.fid_ipi_send_ipi,
        Vclint.os_ipi_pending );
      ("rfence", Mir_sbi.Sbi.ext_rfence, 0L, Vclint.rfence_pending);
    ]

let test_offload_rejects_unknown_ext () =
  let m, hart, cfg, vclint, stats = offload_setup () in
  Hart.set hart 17 0x999L;
  Alcotest.(check bool) "unknown ext deferred" true
    (Miralis.Offload.try_ecall cfg m vclint stats hart
    = Miralis.Offload.Not_handled)

let test_offload_disabled_defers () =
  let m, hart, _, vclint, stats = offload_setup () in
  let cfg = Config.make ~offload:false ~machine:host () in
  Hart.set hart 17 Mir_sbi.Sbi.ext_time;
  Alcotest.(check bool) "offload off" true
    (Miralis.Offload.try_ecall cfg m vclint stats hart
    = Miralis.Offload.Not_handled)

let test_offload_time_read () =
  let m, hart, cfg, _, stats = offload_setup () in
  Clint.set_mtime m.Machine.clint 0x1717L;
  Csr_file.write_raw hart.Hart.csr C.mepc 0x80400100L;
  (* csrrs a0, time, x0 *)
  let bits = Int64.of_int (Mir_rv.Encode.encode
      (Instr.Csr { op = Instr.Csrrs; rd = 10; src = Instr.Reg 0; csr = C.time }))
  in
  (match Miralis.Offload.try_illegal cfg m stats hart ~bits with
  | Miralis.Offload.Resume_at pc -> Helpers.check_i64 "pc+4" 0x80400104L pc
  | Miralis.Offload.Not_handled -> Alcotest.fail "not handled");
  Helpers.check_i64 "rd = mtime" 0x1717L (Hart.get hart 10);
  (* a write form must NOT be offloaded (time is read-only) *)
  let bits_w = Int64.of_int (Mir_rv.Encode.encode
      (Instr.Csr { op = Instr.Csrrw; rd = 10; src = Instr.Reg 5; csr = C.time }))
  in
  Alcotest.(check bool) "write form deferred" true
    (Miralis.Offload.try_illegal cfg m stats hart ~bits:bits_w
    = Miralis.Offload.Not_handled)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "vfm-units"
    [
      ( "config",
        [
          Alcotest.test_case "pmp budget" `Quick test_config_pmp_budget;
          Alcotest.test_case "hardwired delegation" `Quick
            test_config_virtual_hardwires_delegation;
        ] );
      ( "emulator",
        [
          Alcotest.test_case "csr roundtrip" `Quick test_emulator_csr_roundtrip;
          Alcotest.test_case "read-only traps" `Quick
            test_emulator_read_only_csr_traps;
          Alcotest.test_case "counters" `Quick test_emulator_counters;
          Alcotest.test_case "time traps" `Quick test_emulator_time_csr_traps;
          Alcotest.test_case "custom csr passthrough" `Quick
            test_emulator_custom_csr_passthrough;
          Alcotest.test_case "mret MPP=M" `Quick
            test_emulator_mret_stays_when_mpp_m;
          Alcotest.test_case "mret MPP=S" `Quick
            test_emulator_mret_exits_when_mpp_s;
          Alcotest.test_case "MPRV tracking" `Quick test_emulator_mprv_tracking;
          Alcotest.test_case "unsupported" `Quick test_emulator_unsupported;
          Alcotest.test_case "load/store decoder" `Quick
            test_emulator_load_store;
        ] );
      ( "vclint",
        [
          Alcotest.test_case "timer multiplexing" `Quick
            test_vclint_timer_multiplexing;
          Alcotest.test_case "mmio emulation" `Quick test_vclint_mmio_emulation;
        ] );
      ( "vpmp",
        [
          Alcotest.test_case "layout" `Quick test_vpmp_layout;
          Alcotest.test_case "MPRV execute-only" `Quick
            test_vpmp_mprv_execute_only;
          Alcotest.test_case "locked verbatim" `Quick
            test_vpmp_locked_entries_verbatim;
        ] );
      ( "world",
        [
          Alcotest.test_case "roundtrip" `Quick test_world_switch_roundtrip;
          Alcotest.test_case "swap set" `Quick
            test_world_swap_set_respects_extensions;
        ] );
      ( "offload",
        [
          Alcotest.test_case "set_timer" `Quick test_offload_set_timer;
          Alcotest.test_case "hart mask bounds" `Quick
            test_offload_hart_mask_bounds;
          Alcotest.test_case "unknown ext" `Quick
            test_offload_rejects_unknown_ext;
          Alcotest.test_case "disabled" `Quick test_offload_disabled_defers;
          Alcotest.test_case "time read" `Quick test_offload_time_read;
        ] );
    ]
