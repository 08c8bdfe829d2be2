module Bits = Mir_util.Bits
module Prng = Mir_util.Prng
module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Csr_spec = Mir_rv.Csr_spec
module Clint = Mir_rv.Clint
module Plic = Mir_rv.Plic
module Cause = Mir_rv.Cause
module Priv = Mir_rv.Priv
module Instr = Mir_rv.Instr
module Pmp = Mir_rv.Pmp
module Ms = Csr_spec.Mstatus

type t = {
  config : Miralis.Config.t;
  machine : Machine.t;
  hart : Hart.t;
  vhart : Miralis.Vhart.t;
  vregs : int64 array;
  addresses : int list;  (* implemented CSR addresses, cached *)
  pc0 : int64;
}

let create ?inject_bug ?seed () =
  (* A small host: the derived virtual configuration is what both
     sides use. *)
  let host =
    {
      Machine.default_config with
      Machine.ram_size = 64 * 1024;
      nharts = 1;
    }
  in
  let config = Miralis.Config.make ?inject_bug ?seed ~machine:host () in
  let ref_machine_config =
    { host with Machine.csr_config = config.Miralis.Config.vcsr_config }
  in
  let machine = Machine.create ref_machine_config in
  let hart = machine.Machine.harts.(0) in
  let vhart = Miralis.Vhart.create config ~id:0 in
  {
    config;
    machine;
    hart;
    vhart;
    vregs = Array.make 32 0L;
    addresses = Csr_spec.all_addresses config.Miralis.Config.vcsr_config;
    pc0 = Int64.add host.Machine.ram_base 0x1000L;
  }

let config t = t.config

type sample = {
  csrs : (int * int64) list;
  gprs : int64 array;
  mtip : bool;
  msip : bool;
}

let value_patterns =
  [| 0L; -1L; 1L; 0x5555555555555555L; 0xAAAAAAAAAAAAAAAAL;
     0x8000000000000000L; 0x7FFFFFFFFFFFFFFFL; 0x1800L; 0x1000L; 0x222L;
     0x80L |]

let gen_value prng =
  match Prng.int_below prng 3 with
  | 0 -> Prng.choose prng value_patterns
  | 1 -> Int64.shift_left 1L (Prng.int_below prng 64) (* one-hot *)
  | _ -> Prng.next prng

let gen_sample t prng =
  let vcfg = t.config.Miralis.Config.vcsr_config in
  let csrs =
    List.map
      (fun addr ->
        let spec = Option.get (Csr_spec.find vcfg addr) in
        let raw = gen_value prng in
        let v = Csr_spec.apply_write spec ~old:spec.Csr_spec.reset ~value:raw in
        let v =
          if addr = Csr_addr.mstatus then
            (* MIE clear so the reference executes the instruction. *)
            Bits.clear v Ms.mie
          else if addr = Csr_addr.mip then
            (* line-driven bits are set separately *)
            Int64.logand v Csr_spec.Irq.ssip
          else if Csr_addr.is_pmpcfg addr then
            (* keep entries unlocked so the reference fetch at pc0 is
               never blocked by a locked M-mode rule; lock semantics
               are covered by the dedicated PMP task *)
            Int64.logand v 0x7F7F7F7F7F7F7F7FL
          else v
        in
        (addr, v))
      t.addresses
  in
  {
    csrs;
    gprs = Array.init 32 (fun i -> if i = 0 then 0L else gen_value prng);
    mtip = Prng.bool prng;
    msip = Prng.bool prng;
  }

let stream_begin t sample =
  let hcsr = t.hart.Hart.csr and vcsr = t.vhart.Miralis.Vhart.csr in
  List.iter
    (fun (addr, v) ->
      Csr_file.write_raw hcsr addr v;
      Csr_file.write_raw vcsr addr v)
    sample.csrs;
  (* interrupt lines: canonical device state, so an input's behaviour
     never depends on what a previous sample left in the CLINT/PLIC *)
  Clint.set_mtime t.machine.Machine.clint 1000L;
  Clint.set_mtimecmp t.machine.Machine.clint 0
    (if sample.mtip then 0L else -1L);
  Clint.set_msip t.machine.Machine.clint 0 sample.msip;
  Plic.lower_irq t.machine.Machine.plic 1;
  List.iter
    (fun (bits, on) ->
      Csr_file.set_mip_bits hcsr bits on;
      Csr_file.set_mip_bits vcsr bits on)
    [ (Csr_spec.Irq.mtip, sample.mtip); (Csr_spec.Irq.msip, sample.msip) ];
  Array.iteri
    (fun i v ->
      Hart.set t.hart i v;
      t.vregs.(i) <- v)
    sample.gprs;
  t.hart.Hart.pc <- t.pc0;
  t.hart.Hart.priv <- Priv.M;
  t.hart.Hart.wfi <- false;
  t.vhart.Miralis.Vhart.world <- Miralis.Vhart.Firmware;
  t.vhart.Miralis.Vhart.mprv_active <- false

type verdict = Agree | Skip | Disagree of string

(* Complete a virtual trap with the monitor's own injection code (the
   firmware traps from vM-mode at pc0); returns the handler pc. *)
let apply_vtrap t cause ~tval =
  Miralis.Emulator.vtrap_entry t.vhart cause ~tval ~epc:t.pc0 ~mpp:Priv.M

let compare_states t ~vpc ~vpriv ~vwfi instr =
  let hcsr = t.hart.Hart.csr and vcsr = t.vhart.Miralis.Vhart.csr in
  let fail fmt = Printf.ksprintf (fun s -> Some s) fmt in
  let istr = Instr.to_string instr in
  let csr_mismatch =
    List.find_map
      (fun addr ->
        let h = Csr_file.read_raw hcsr addr
        and v = Csr_file.read_raw vcsr addr in
        if h <> v then
          fail "%s: %s differs (hw=%Lx vfm=%Lx)" istr (Csr_addr.name addr) h v
        else None)
      t.addresses
  in
  match csr_mismatch with
  | Some _ as m -> m
  | None ->
      let rec regs i =
        if i >= 32 then None
        else if Hart.get t.hart i <> t.vregs.(i) then
          fail "%s: x%d differs (hw=%Lx vfm=%Lx)" istr i (Hart.get t.hart i)
            t.vregs.(i)
        else regs (i + 1)
      in
      (match regs 1 with
      | Some _ as m -> m
      | None ->
          if t.hart.Hart.pc <> vpc then
            fail "%s: pc differs (hw=%Lx vfm=%Lx)" istr t.hart.Hart.pc vpc
          else if t.hart.Hart.priv <> vpriv then
            fail "%s: priv differs (hw=%s vfm=%s)" istr
              (Priv.to_string t.hart.Hart.priv)
              (Priv.to_string vpriv)
          else if t.hart.Hart.wfi <> vwfi then
            fail "%s: wfi differs (hw=%b vfm=%b)" istr t.hart.Hart.wfi vwfi
          else None)

(* ------------------------------------------------------------------ *)
(* Stream execution (the fuzzer's engine)                              *)
(* ------------------------------------------------------------------ *)

(* A stream executes a whole instruction sequence against ONE evolving
   state: CSR effects accumulate across instructions, which is where
   sequence-dependent bugs (PMP reconfiguration, delegation flips,
   MPIE shuffles) live. Each step re-arms the program counter, the
   privilege and the world — architecturally, the firmware trap
   handler runs one privileged instruction at a time from a fixed
   handler address — while every other piece of state flows on.

   The oracle is the lib/trace digest over pc/priv/wfi/x1..x31 and
   every implemented CSR, computed with the identical function on both
   sides; a mismatch is then named by the detailed comparator. *)

type outcome =
  | O_next
  | O_jump
  | O_exit_os
  | O_vtrap of Cause.exc
  | O_wfi
  | O_irq of Cause.intr
  | O_skip  (** the current PMP blocks the reference fetch *)

type step = { verdict : verdict; outcome : outcome }

let outcome_tag = function
  | O_next -> 0
  | O_jump -> 1
  | O_exit_os -> 2
  | O_vtrap _ -> 3
  | O_wfi -> 4
  | O_irq _ -> 5
  | O_skip -> 6

let outcome_cause = function
  | O_vtrap e -> Cause.exc_code e
  | O_irq i -> Cause.intr_code i
  | O_next | O_jump | O_exit_os | O_wfi | O_skip -> 0

(* Drive the timer/software/external interrupt lines mid-stream,
   exactly as [stream_begin] does initially: the CLINT and PLIC device
   state and both raw mip copies stay consistent, so the reference
   machine's own line refresh recomputes the same values. *)
let set_lines t ~mtip ~msip ~meip =
  Clint.set_mtime t.machine.Machine.clint 1000L;
  Clint.set_mtimecmp t.machine.Machine.clint 0 (if mtip then 0L else -1L);
  Clint.set_msip t.machine.Machine.clint 0 msip;
  let plic = t.machine.Machine.plic in
  Plic.enable_source plic ~ctx:0 1;
  if meip then Plic.raise_irq plic 1 else Plic.lower_irq plic 1;
  List.iter
    (fun (bits, on) ->
      Csr_file.set_mip_bits t.hart.Hart.csr bits on;
      Csr_file.set_mip_bits t.vhart.Miralis.Vhart.csr bits on)
    [
      (Csr_spec.Irq.mtip, mtip); (Csr_spec.Irq.msip, msip);
      (Csr_spec.Irq.meip, meip);
    ]

let ref_digest t =
  Mir_trace.Tracer.digest_values ~pc:t.hart.Hart.pc
    ~priv:(Priv.to_int t.hart.Hart.priv)
    ~wfi:t.hart.Hart.wfi
    ~regs:(Hart.get t.hart)
    ~csrs:t.addresses
    ~read_csr:(Csr_file.read_raw t.hart.Hart.csr)

let vfm_digest t ~vpc ~vpriv ~vwfi =
  Mir_trace.Tracer.digest_values ~pc:vpc ~priv:(Priv.to_int vpriv) ~wfi:vwfi
    ~regs:(fun i -> t.vregs.(i))
    ~csrs:t.addresses
    ~read_csr:(Csr_file.read_raw t.vhart.Miralis.Vhart.csr)

let rearm t =
  t.hart.Hart.pc <- t.pc0;
  t.hart.Hart.priv <- Priv.M;
  t.hart.Hart.wfi <- false;
  t.hart.Hart.irq_stale <- 0;
  t.vhart.Miralis.Vhart.world <- Miralis.Vhart.Firmware;
  (* SEIP is wire-owned: the reference machine recomputes it from the
     (idle) PLIC at every line refresh, including the one inside a
     trap to M-mode, so a software-set SEIP would survive on the
     virtual side only. Clear it on both sides at each re-arm so a
     write to it lives exactly to the end of its own step. *)
  Csr_file.set_mip_bits t.hart.Hart.csr Csr_spec.Irq.seip false;
  Csr_file.set_mip_bits t.vhart.Miralis.Vhart.csr Csr_spec.Irq.seip false

let compare_digests t ~vpc ~vpriv ~vwfi instr =
  if ref_digest t = vfm_digest t ~vpc ~vpriv ~vwfi then Agree
  else
    match compare_states t ~vpc ~vpriv ~vwfi instr with
    | Some msg -> Disagree msg
    | None ->
        (* the digest folds every CSR; the comparator walks the same
           list, so this is unreachable unless they disagree on
           coverage — report rather than assert *)
        Disagree (Instr.to_string instr ^ ": digest mismatch only")

let stream_step t instr =
  rearm t;
  match Machine.pending_interrupt t.machine t.hart with
  | Some i -> begin
      (* The reference would take the interrupt instead of executing
         the instruction. Compare the injection decision, mirror the
         trap entry on the virtual side, and compare the post-states. *)
      let vfm = Miralis.Emulator.check_virtual_interrupt t.config t.vhart in
      match vfm with
      | Some vi when vi = i ->
          Machine.step t.machine t.hart;
          (* delivers the trap *)
          let target = apply_vtrap t (Cause.Interrupt i) ~tval:0L in
          let verdict =
            compare_digests t ~vpc:target ~vpriv:Priv.M ~vwfi:false instr
          in
          { verdict; outcome = O_irq i }
      | other ->
          {
            verdict =
              Disagree
                (Printf.sprintf
                   "interrupt injection differs: hw=%s vfm=%s"
                   (Cause.to_string (Cause.Interrupt i))
                   (match other with
                   | Some vi -> Cause.to_string (Cause.Interrupt vi)
                   | None -> "none"));
            outcome = O_irq i;
          }
    end
  | None ->
      (match Miralis.Emulator.check_virtual_interrupt t.config t.vhart with
      | Some vi ->
          {
            verdict =
              Disagree
                (Printf.sprintf
                   "interrupt injection differs: hw=none vfm=%s"
                   (Cause.to_string (Cause.Interrupt vi)));
            outcome = O_irq vi;
          }
      | None ->
      if
        not
          (Pmp.check
             ~entries:(Csr_file.pmp_entries t.hart.Hart.csr)
             ~priv:Priv.M Pmp.Exec ~addr:t.pc0 ~size:4)
      then { verdict = Skip; outcome = O_skip }
      else begin
        let bits = Mir_rv.Encode.encode instr in
        ignore (Machine.phys_store t.machine t.pc0 4 (Int64.of_int bits));
        Machine.invalidate_icache t.machine t.pc0 4;
        let pre_cycles = t.hart.Hart.cycles
        and pre_instret = t.hart.Hart.instret in
        Machine.step t.machine t.hart;
        let ctx =
          {
            Miralis.Emulator.read_gpr = (fun i -> t.vregs.(i));
            write_gpr = (fun i v -> if i <> 0 then t.vregs.(i) <- v);
            pc = t.pc0;
            cycles = Int64.of_int (pre_cycles + 1);
            instret = Int64.of_int (pre_instret + 1);
            phys_custom_read = (fun _ -> 0L);
            phys_custom_write = (fun _ _ -> ());
          }
        in
        let out = Miralis.Emulator.emulate t.config t.vhart ctx ~bits instr in
        let (vpc, vpriv, vwfi), outcome =
          match out.Miralis.Emulator.action with
          | Miralis.Emulator.Next -> ((Int64.add t.pc0 4L, Priv.M, false), O_next)
          | Miralis.Emulator.Jump pc -> ((pc, Priv.M, false), O_jump)
          | Miralis.Emulator.Exit_to_os { pc; priv } ->
              ((pc, priv, false), O_exit_os)
          | Miralis.Emulator.Vtrap (e, tval) ->
              ((apply_vtrap t (Cause.Exception e) ~tval, Priv.M, false), O_vtrap e)
          | Miralis.Emulator.Wfi -> ((Int64.add t.pc0 4L, Priv.M, true), O_wfi)
          | Miralis.Emulator.Unsupported -> ((0L, Priv.M, false), O_next)
        in
        if out.Miralis.Emulator.action = Miralis.Emulator.Unsupported then
          {
            verdict =
              Disagree (Instr.to_string instr ^ ": emulator reports Unsupported");
            outcome;
          }
        else { verdict = compare_digests t ~vpc ~vpriv ~vwfi instr; outcome }
      end)
