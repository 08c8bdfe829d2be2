(* The symbolic faithful-emulation prover.

   Where {!Diff} samples the state space, this module covers it: the
   privileged semantics are functorized over an abstract bitvector
   domain ({!Mir_util.Bits_sig.S}), so the very transforms the monitor
   runs concretely can be re-executed at the symbolic backend
   ({!Mir_sym.Backend}) on fully unconstrained CSR words. Each proof
   instance pits the reference machine's dispatch against the
   emulator's over the same symbolic inputs; the path explorer splits
   on every genuinely control-dependent bit, and per leaf the two
   result states are checked for equivalence. A refuted leaf yields a
   concrete counterexample state, which is how every injected bug
   class must manifest.

   Modelling assumptions, mirrored from the sampled harness
   ({!Diff}): the virtual hart sits in vM-mode (privilege checks
   pass), device interrupt lines are held constant across the step,
   and stored CSR values range over their *reachable* sets — any raw
   word pushed through the CSR's own write semantics from reset, with
   mip additionally allowed any combination of the six standard
   interrupt bits (hardware lines set the M-level ones). *)

module B = Mir_sym.Backend
module W = Mir_sym.Word
module E = Mir_sym.Expr
module Eng = Mir_sym.Engine
module Csr_addr = Mir_rv.Csr_addr
module Csr_spec = Mir_rv.Csr_spec
module Cause = Mir_rv.Cause
module Priv = Mir_rv.Priv
module Instr = Mir_rv.Instr
module Ms = Csr_spec.Mstatus
module Irq = Csr_spec.Irq
module X = Mir_rv.Hart.Xfer (B)
module CS = Csr_spec.Sem (B)
module ES = Miralis.Emulator.Sem (B)

type report = {
  name : string;
  instances : int;  (** concrete instruction/address instances *)
  paths : int;  (** fully explored symbolic paths *)
  unexplored : int;  (** paths cut by depth bound or blast overflow *)
  mismatches : int;
  first_counterexample : string option;
  depth_hist : int array;  (** leaves per split depth *)
  seconds : float;
}

let proved r = r.mismatches = 0 && r.unexplored = 0

let pp_report ppf r =
  Format.fprintf ppf "[sym] %-18s %7d instances %8d paths  %s  (%.2fs)"
    r.name r.instances r.paths
    (if proved r then "PROVED"
     else
       Printf.sprintf "FAILED (%d mismatches, %d unexplored)" r.mismatches
         r.unexplored)
    r.seconds;
  match r.first_counterexample with
  | Some cex when r.mismatches > 0 ->
      Format.fprintf ppf "@,      counterexample: %s" cex
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Symbolic CSR state                                                  *)
(* ------------------------------------------------------------------ *)

module M = Map.Make (Int)

type st = W.t M.t

let get st addr =
  match M.find_opt addr st with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "Prove: untracked CSR %s" (Csr_addr.name addr))

(* The reachable stored value of a CSR: a fresh word pushed through
   the CSR's own write semantics from its reset value — symbolically,
   the same state invariant the sampled harness establishes per
   sample. Unimplemented addresses get a raw word (their storage is
   only observable through the injected overrun bug). *)
let fresh_stored cfg addr =
  let raw = Eng.fresh_word (Csr_addr.name addr) in
  match Csr_spec.find cfg addr with
  | Some s -> CS.apply_write s ~old:(B.const s.Csr_spec.reset) ~value:raw
  | None -> raw

let std_irq_mask = Int64.logor Irq.s_mask Irq.m_mask

(* mip's M-level bits are driven by interrupt lines, not writes:
   allow any combination of the six standard bits. *)
let fresh_mip () = B.logand (Eng.fresh_word "mip") (B.const std_irq_mask)

let trap_regs =
  [
    Csr_addr.mstatus;
    Csr_addr.mtvec;
    Csr_addr.mepc;
    Csr_addr.mcause;
    Csr_addr.mtval;
  ]

let cfg_reg_of_entry i = Csr_addr.pmpcfg (i / 8 * 2)

(* The CSRs a probe of [addr] can read or write on either side: the
   M-mode trap frame (any probe may fault), the probed storage, the
   underlying registers of the s-level views, and — for pmpaddr — the
   pmpcfg registers consulted by the lock check. *)
let tracked_for cfg addr =
  let deps =
    if addr = Csr_addr.sstatus then []
    else if addr = Csr_addr.sie then [ Csr_addr.mie; Csr_addr.mideleg ]
    else if addr = Csr_addr.sip then [ Csr_addr.mip; Csr_addr.mideleg ]
    else if Csr_addr.is_pmpaddr addr then
      let i = addr - Csr_addr.pmpaddr 0 in
      addr :: cfg_reg_of_entry i
      ::
      (if i + 1 < cfg.Csr_spec.pmp_count then [ cfg_reg_of_entry (i + 1) ]
       else [])
    else [ addr ]
  in
  List.sort_uniq compare (trap_regs @ deps)

let build_state cfg addrs =
  List.fold_left
    (fun st addr ->
      let w =
        if addr = Csr_addr.mip then fresh_mip () else fresh_stored cfg addr
      in
      M.add addr w st)
    M.empty addrs

(* ------------------------------------------------------------------ *)
(* Shared architectural helpers (used by both sides)                   *)
(* ------------------------------------------------------------------ *)

(* M-mode exception entry: the reference machine's trap path and the
   monitor's virtual-trap injection run the same transform. *)
let trap_m st ~pc0 ~exc ~tval =
  let st = M.add Csr_addr.mepc (B.const pc0) st in
  let st =
    M.add Csr_addr.mcause
      (B.const (Cause.to_xcause (Cause.Exception exc)))
      st
  in
  let st = M.add Csr_addr.mtval tval st in
  let st =
    M.add Csr_addr.mstatus
      (X.trap_entry_m ~mstatus:(get st Csr_addr.mstatus) ~from_priv:Priv.M)
      st
  in
  (* Exceptions target the base: {!Cause.tvec_target} only masks the
     MODE bits off for them, so its value at all-ones is the mask to
     apply to the symbolic mtvec. *)
  let mask = Cause.tvec_target (-1L) (Cause.Exception exc) in
  (st, B.logand (get st Csr_addr.mtvec) (B.const mask))

let arch_read cfg st addr =
  if addr = Csr_addr.sstatus then
    CS.sstatus_read ~mstatus:(get st Csr_addr.mstatus)
  else if addr = Csr_addr.sie then
    CS.sie_read ~mie:(get st Csr_addr.mie) ~mideleg:(get st Csr_addr.mideleg)
  else if addr = Csr_addr.sip then
    CS.sip_read ~mip:(get st Csr_addr.mip) ~mideleg:(get st Csr_addr.mideleg)
  else
    match Csr_spec.find cfg addr with
    | Some s -> CS.apply_read s (get st addr)
    | None -> invalid_arg "Prove.arch_read: unimplemented CSR"

(* The lock bit of PMP entry [i] as {!Mir_rv.Pmp.locked} computes it:
   the entry's own L, or the next entry's L when that entry is TOR
   (locking this entry's address as its range base). *)
let pmp_locked cfg st i =
  let byte_bit j k = B.test (get st (cfg_reg_of_entry j)) ((j mod 8 * 8) + k) in
  let l = byte_bit i 7 in
  if i + 1 < cfg.Csr_spec.pmp_count then
    let tor = E.and_ (byte_bit (i + 1) 3) (E.not_ (byte_bit (i + 1) 4)) in
    E.or_ l (E.and_ (byte_bit (i + 1) 7) tor)
  else l

let arch_write cfg st addr v =
  if addr = Csr_addr.sstatus then
    M.add Csr_addr.mstatus
      (CS.sstatus_write ~mstatus:(get st Csr_addr.mstatus) ~value:v)
      st
  else if addr = Csr_addr.sie then
    M.add Csr_addr.mie
      (CS.sie_write ~mie:(get st Csr_addr.mie)
         ~mideleg:(get st Csr_addr.mideleg) ~value:v)
      st
  else if addr = Csr_addr.sip then
    M.add Csr_addr.mip
      (CS.sip_write ~mip:(get st Csr_addr.mip)
         ~mideleg:(get st Csr_addr.mideleg) ~value:v)
      st
  else
    match Csr_spec.find cfg addr with
    | None -> invalid_arg "Prove.arch_write: unimplemented CSR"
    | Some s ->
        let old = get st addr in
        let stored = CS.apply_write s ~old ~value:v in
        let stored =
          if Csr_addr.is_pmpaddr addr then
            W.ite (pmp_locked cfg st (addr - Csr_addr.pmpaddr 0)) old stored
          else stored
        in
        M.add addr stored st

(* ------------------------------------------------------------------ *)
(* The two sides of one CSR-instruction step                           *)
(* ------------------------------------------------------------------ *)

type form = { op : Instr.csr_op; rd : int; src : Instr.src }

let read_forms =
  [
    { op = Instr.Csrrs; rd = 11; src = Instr.Reg 0 };
    { op = Instr.Csrrc; rd = 12; src = Instr.Reg 0 };
    { op = Instr.Csrrs; rd = 13; src = Instr.Imm 0 };
    { op = Instr.Csrrc; rd = 0; src = Instr.Imm 0 };
  ]

let write_forms =
  [
    { op = Instr.Csrrw; rd = 11; src = Instr.Reg 5 };
    { op = Instr.Csrrw; rd = 0; src = Instr.Reg 6 };
    { op = Instr.Csrrs; rd = 12; src = Instr.Reg 7 };
    { op = Instr.Csrrc; rd = 13; src = Instr.Reg 28 };
    { op = Instr.Csrrw; rd = 14; src = Instr.Imm 31 };
    { op = Instr.Csrrs; rd = 15; src = Instr.Imm 21 };
    { op = Instr.Csrrc; rd = 5; src = Instr.Imm 9 };
  ]

let op_name = function
  | Instr.Csrrw -> "csrrw"
  | Instr.Csrrs -> "csrrs"
  | Instr.Csrrc -> "csrrc"

let form_name (f : form) =
  Printf.sprintf "%s x%d, %s" (op_name f.op) f.rd
    (match f.src with
    | Instr.Reg r -> Printf.sprintf "x%d" r
    | Instr.Imm z -> string_of_int z)

(* The result of one architectural step, both sides reduced to the
   same shape: the virtual pc/priv the firmware observes next, the
   rd writeback, and the final stored-CSR state. *)
type side = { st : st; rd : (int * W.t) option; pc : W.t; priv : Priv.t }

type icx = {
  config : Miralis.Config.t;
  cfg : Csr_spec.config;  (** the virtual (= reference) CSR config *)
  pc0 : int64;
  bits : int;
  cycles : W.t;
  instret : W.t;
  src_val : W.t;
}

let has_bug (config : Miralis.Config.t) b =
  config.Miralis.Config.inject_bug = Some b

let step_trap icx st =
  let st, target =
    trap_m st ~pc0:icx.pc0 ~exc:Cause.Illegal_instr
      ~tval:(B.const (Int64.of_int icx.bits))
  in
  { st; rd = None; pc = target; priv = Priv.M }

let step_finish icx (f : form) st old =
  {
    st;
    rd = (if f.rd = 0 then None else Some (f.rd, old));
    pc = B.const (Int64.add icx.pc0 4L);
    priv = Priv.M;
  }

(* The reference: {!Mir_rv.Machine.exec_csr} on the virtual-equivalent
   machine, executing at M — privilege and counter-enable checks pass
   and TVM applies only at S, exactly as in the concrete dispatch. *)
let ref_csr icx st (f : form) addr =
  let wn = Instr.csr_writes f.op f.src in
  if wn && Csr_addr.is_read_only addr then step_trap icx st
  else if addr = Csr_addr.cycle then step_finish icx f st icx.cycles
  else if addr = Csr_addr.time then begin
    (* the modelled boards implement no time CSR; a mapped mtime would
       need a device model on both sides *)
    assert (not icx.cfg.Csr_spec.has_time_csr);
    step_trap icx st
  end
  else if addr = Csr_addr.instret then step_finish icx f st icx.instret
  else if addr = Csr_addr.mcycle then
    (* counter writes are dropped (storage=false) *)
    step_finish icx f st icx.cycles
  else if addr = Csr_addr.minstret then step_finish icx f st icx.instret
  else if not (Csr_spec.exists icx.cfg addr) then step_trap icx st
  else begin
    let old = arch_read icx.cfg st addr in
    let st =
      if wn then arch_write icx.cfg st addr (X.csr_rmw f.op ~old ~src:icx.src_val)
      else st
    in
    step_finish icx f st old
  end

(* The emulator: {!Miralis.Emulator.emulate_csr} against the virtual
   CSR file, with every injected-bug branch modelled. A [Vtrap]
   outcome is completed by the monitor's virtual-trap injection —
   the same M-mode entry transform. *)
let emu_csr icx st (f : form) addr =
  let wn = Instr.csr_writes f.op f.src in
  if wn && Csr_addr.is_read_only addr then step_trap icx st
  else if addr = Csr_addr.mcycle || addr = Csr_addr.cycle then
    step_finish icx f st icx.cycles
  else if addr = Csr_addr.minstret || addr = Csr_addr.instret then
    step_finish icx f st icx.instret
  else if addr = Csr_addr.time then step_trap icx st
  else if List.mem addr icx.config.Miralis.Config.allowed_custom_csrs then
    invalid_arg "Prove: custom CSR passthrough is not modelled"
  else if not (Csr_spec.exists icx.cfg addr) then
    if
      has_bug icx.config Miralis.Config.Vpmp_overrun
      && Csr_addr.is_pmpaddr addr
      && addr - Csr_addr.pmpaddr 0 = icx.cfg.Csr_spec.pmp_count
    then begin
      (* the out-of-bounds raw access of the injected overrun bug *)
      let old = get st addr in
      let st =
        if wn then M.add addr (X.csr_rmw f.op ~old ~src:icx.src_val) st else st
      in
      step_finish icx f st old
    end
    else step_trap icx st
  else begin
    let old = arch_read icx.cfg st addr in
    if wn then begin
      let v = X.csr_rmw f.op ~old ~src:icx.src_val in
      let st =
        if
          addr = Csr_addr.mstatus
          && has_bug icx.config Miralis.Config.Mpp_not_legalized
        then
          M.add addr
            (ES.mstatus_write_no_legalize ~old:(get st addr) ~value:v)
            st
        else if
          Csr_addr.is_pmpcfg addr
          && has_bug icx.config Miralis.Config.Pmp_w_without_r
        then M.add addr v st (* raw write: skips W=1/R=0 legalization *)
        else arch_write icx.cfg st addr v
      in
      step_finish icx f st old
    end
    else step_finish icx f st old
  end

(* ------------------------------------------------------------------ *)
(* Leaf comparison                                                     *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable instances : int;
  mutable paths : int;
  mutable unexplored : int;
  mutable mismatches : int;
  mutable first : string option;
  hist : int array;
}

let max_depth = 32
let new_acc () =
  {
    instances = 0;
    paths = 0;
    unexplored = 0;
    mismatches = 0;
    first = None;
    hist = Array.make (max_depth + 1) 0;
  }

let render_state env =
  String.concat " "
    (List.map
       (fun (n, v) -> Printf.sprintf "%s=0x%Lx" n v)
       (Eng.concretize_inputs env))

let note_mismatch acc describe msg =
  acc.mismatches <- acc.mismatches + 1;
  if acc.first = None then acc.first <- Some (describe ^ ": " ^ msg)

(* Check one explored leaf: the pair of result states must agree on
   privilege, rd writeback, next pc and every tracked CSR — under the
   leaf's path constraints, for *all* remaining free input bits. *)
let check_leaf acc ~describe tracked (leaf : (side * side) Eng.leaf) =
  let r, e = leaf.Eng.value in
  let env = Eng.lookup_in leaf.Eng.path in
  let concrete_fail msg =
    let full = Eng.env_of_path ~path:leaf.Eng.path ~refutation:[] in
    note_mismatch acc describe
      (Printf.sprintf "%s  [%s]" msg (render_state full))
  in
  if r.priv <> e.priv then
    concrete_fail
      (Printf.sprintf "priv: hw=%s vfm=%s" (Priv.to_string r.priv)
         (Priv.to_string e.priv))
  else begin
    let items =
      (match (r.rd, e.rd) with
      | None, None -> Ok []
      | Some (i, a), Some (j, b) when i = j ->
          Ok [ (Printf.sprintf "x%d" i, a, b) ]
      | _ -> Error "rd writeback target differs")
      |> Result.map (fun rd_items ->
             (("pc", r.pc, e.pc) :: rd_items)
             @ List.map
                 (fun a -> (Csr_addr.name a, get r.st a, get e.st a))
                 tracked)
    in
    match items with
    | Error msg -> concrete_fail msg
    | Ok items ->
        let rec go = function
          | [] -> ()
          | (label, a, b) :: rest -> (
              match W.equiv env a b with
              | E.Proved -> go rest
              | E.Refuted refutation ->
                  let full =
                    Eng.env_of_path ~path:leaf.Eng.path ~refutation
                  in
                  note_mismatch acc describe
                    (Printf.sprintf "%s: hw=0x%Lx vfm=0x%Lx  [%s]" label
                       (W.eval full a) (W.eval full b) (render_state full))
              | E.Abandoned _ ->
                  (* too wide to bit-blast: soundness requires counting
                     the leaf as unexplored, never as proved *)
                  acc.unexplored <- acc.unexplored + 1)
        in
        go items
  end

let merge_exploration acc ex =
  acc.instances <- acc.instances + 1;
  acc.paths <- acc.paths + ex.Eng.paths;
  acc.unexplored <- acc.unexplored + ex.Eng.unexplored;
  Array.iteri
    (fun d n -> if d <= max_depth then acc.hist.(d) <- acc.hist.(d) + n)
    ex.Eng.depth_hist

let report_of_acc name acc t0 =
  {
    name;
    instances = acc.instances;
    paths = acc.paths;
    unexplored = acc.unexplored;
    mismatches = acc.mismatches;
    first_counterexample = acc.first;
    depth_hist = acc.hist;
    seconds = Sys.time () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Proof tasks                                                         *)
(* ------------------------------------------------------------------ *)

let make_config ?inject_bug () =
  let host =
    {
      Mir_rv.Machine.default_config with
      Mir_rv.Machine.ram_size = 64 * 1024;
      nharts = 1;
    }
  in
  let config = Miralis.Config.make ?inject_bug ~machine:host () in
  let pc0 = Int64.add host.Mir_rv.Machine.ram_base 0x1000L in
  (config, config.Miralis.Config.vcsr_config, pc0)

(* The probed address space: every address in quick mode would be
   wasteful, so quick covers the implemented CSRs plus the interesting
   unimplemented corners (dynamic counters, the time CSR, odd pmpcfg,
   the pmpaddr just past the implemented count — the overrun bug's
   target — and the extremes). Full mode sweeps all 4096. *)
let probe_addrs ~quick cfg =
  if not quick then List.init 4096 Fun.id
  else
    List.sort_uniq compare
      (Csr_spec.all_addresses cfg
      @ [
          0x000;
          Csr_addr.cycle;
          Csr_addr.time;
          Csr_addr.instret;
          Csr_addr.mhpmcounter 3;
          Csr_addr.pmpcfg 0 + 1;
          Csr_addr.pmpaddr cfg.Csr_spec.pmp_count;
          Csr_addr.pmpaddr (cfg.Csr_spec.pmp_count + 1);
          Csr_addr.stimecmp;
          Csr_addr.hstatus;
          0x7FF;
          0xFFF;
        ])

let run_csr_task ~name ~forms ?(quick = false) ?inject_bug () =
  let t0 = Sys.time () in
  let config, cfg, pc0 = make_config ?inject_bug () in
  let acc = new_acc () in
  List.iter
    (fun addr ->
      let tracked = tracked_for cfg addr in
      List.iter
        (fun f ->
          Eng.reset ();
          let st0 = build_state cfg tracked in
          let src_val =
            match f.src with
            | Instr.Reg 0 -> B.const 0L
            | Instr.Reg r -> Eng.fresh_word (Printf.sprintf "x%d" r)
            | Instr.Imm z -> B.const (Int64.of_int z)
          in
          let icx =
            {
              config;
              cfg;
              pc0;
              bits = 0x73 lor (addr lsl 20);
              cycles = Eng.fresh_word "cycles";
              instret = Eng.fresh_word "instret";
              src_val;
            }
          in
          let ex =
            Eng.explore ~max_depth (fun () ->
                (ref_csr icx st0 f addr, emu_csr icx st0 f addr))
          in
          merge_exploration acc ex;
          let describe =
            Printf.sprintf "%s @%s" (form_name f) (Csr_addr.name addr)
          in
          List.iter (check_leaf acc ~describe tracked) ex.Eng.leaves)
        forms)
    (probe_addrs ~quick cfg);
  report_of_acc name acc t0

let csr_read ?quick ?inject_bug () =
  run_csr_task ~name:"csr_read" ~forms:read_forms ?quick ?inject_bug ()

let csr_write ?quick ?inject_bug () =
  run_csr_task ~name:"csr_write" ~forms:write_forms ?quick ?inject_bug ()

(* mret/sret: the reference executes the return in M-mode; the
   emulator applies the same transform to the virtual mstatus and
   either resumes the firmware (target vM) or world-switches. Both
   reduce to (pc', priv', mstatus'). *)
let xret ~name ~regs ~run ?inject_bug () =
  let t0 = Sys.time () in
  let config, cfg, _pc0 = make_config ?inject_bug () in
  let acc = new_acc () in
  let tracked = List.sort_uniq compare (trap_regs @ regs) in
  Eng.reset ();
  let st0 = build_state cfg tracked in
  let ex = Eng.explore ~max_depth (fun () -> run config st0) in
  merge_exploration acc ex;
  List.iter (check_leaf acc ~describe:name tracked) ex.Eng.leaves;
  report_of_acc name acc t0

let mret ?quick:_ ?inject_bug () =
  xret ~name:"mret" ~regs:[ Csr_addr.mepc ] ?inject_bug
    ~run:(fun config st ->
      let m = get st Csr_addr.mstatus in
      let target = get st Csr_addr.mepc in
      let reference =
        {
          st = M.add Csr_addr.mstatus (X.mret_mstatus m) st;
          rd = None;
          pc = target;
          priv = X.mret_target_priv m;
        }
      in
      let skip_mpie = has_bug config Miralis.Config.Mret_skips_mpie in
      let emu =
        {
          st = M.add Csr_addr.mstatus (ES.mret_mstatus ~skip_mpie m) st;
          rd = None;
          pc = target;
          priv = ES.mret_target_priv m;
        }
      in
      (reference, emu))
    ()

let sret ?quick:_ ?inject_bug () =
  xret ~name:"sret" ~regs:[ Csr_addr.sepc ] ?inject_bug
    ~run:(fun _config st ->
      let m = get st Csr_addr.mstatus in
      let target = get st Csr_addr.sepc in
      let reference =
        {
          st = M.add Csr_addr.mstatus (X.sret_mstatus m) st;
          rd = None;
          pc = target;
          priv = X.sret_target_priv m;
        }
      in
      let emu =
        {
          st = M.add Csr_addr.mstatus (ES.sret_mstatus m) st;
          rd = None;
          pc = target;
          priv = ES.sret_target_priv m;
        }
      in
      (reference, emu))
    ()

(* The virtual-interrupt injection decision against the reference
   take-an-interrupt decision: SIE is held clear, the hart privilege
   matches the world (vM-mode firmware runs at M once re-entered; the
   OS at S), and an interrupt the physical machine would deliver to
   M-mode must be the one the monitor injects. *)
let virtual_interrupt ?quick:_ ?inject_bug () =
  let t0 = Sys.time () in
  let config, cfg, _pc0 = make_config ?inject_bug () in
  let acc = new_acc () in
  let order_emu =
    if has_bug config Miralis.Config.Interrupt_priority_swapped then
      Miralis.Emulator.intr_priority_buggy
    else Cause.priority
  in
  List.iter
    (fun world ->
      Eng.reset ();
      let mstatus = B.clear (fresh_stored cfg Csr_addr.mstatus) Ms.sie in
      let mip = fresh_mip () in
      let mie = fresh_stored cfg Csr_addr.mie in
      let mideleg = fresh_stored cfg Csr_addr.mideleg in
      let priv =
        match world with Miralis.Vhart.Firmware -> Priv.M | Os -> Priv.S
      in
      let ex =
        Eng.explore ~max_depth (fun () ->
            let reference =
              (* only interrupts reaching physical M-mode correspond
                 to virtual injections; delegated ones are delivered
                 natively to the OS *)
              match
                X.pending_interrupt ~priv ~mstatus ~mip ~mie ~mideleg
              with
              | Some i
                when not (B.decide (B.test mideleg (Cause.intr_code i))) ->
                  Some i
              | _ -> None
            in
            let vfm =
              ES.virtual_interrupt ~order:order_emu ~world ~mstatus ~mip ~mie
                ~mideleg
            in
            (reference, vfm))
      in
      merge_exploration acc ex;
      let describe =
        Printf.sprintf "virq world=%s" (Miralis.Vhart.world_name world)
      in
      List.iter
        (fun (leaf : (Cause.intr option * Cause.intr option) Eng.leaf) ->
          let r, e = leaf.Eng.value in
          if r <> e then begin
            let full = Eng.env_of_path ~path:leaf.Eng.path ~refutation:[] in
            let show = function
              | None -> "none"
              | Some i -> Cause.to_string (Cause.Interrupt i)
            in
            note_mismatch acc describe
              (Printf.sprintf "inject: hw=%s vfm=%s  [%s]" (show r) (show e)
                 (render_state full))
          end)
        ex.Eng.leaves)
    [ Miralis.Vhart.Firmware; Miralis.Vhart.Os ];
  report_of_acc "virtual_interrupt" acc t0

let all ?(quick = false) ?inject_bug () =
  [
    csr_read ~quick ?inject_bug ();
    csr_write ~quick ?inject_bug ();
    mret ~quick ?inject_bug ();
    sret ~quick ?inject_bug ();
    virtual_interrupt ~quick ?inject_bug ();
  ]
