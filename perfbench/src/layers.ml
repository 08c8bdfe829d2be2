(* From-outside instrumentation of the layers the traced run measures.

   Every wrapper calls the hook it replaces exactly once with the same
   arguments and only records a span around it, so a traced system
   computes the same digests and counters as an untraced one. *)

module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Cause = Mir_rv.Cause
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Monitor = Miralis.Monitor
module Vhart = Miralis.Vhart
module Policy = Miralis.Policy
module Vfm_stats = Miralis.Vfm_stats
module Sbi = Mir_sbi.Sbi
module Scenario = Mir_explore.Scenario
module Oracle = Mir_explore.Oracle

(* Monitor call classes, by cause, trapping world and (for OS ecalls)
   the SBI extension in a7. The remote-fence icache flush runs in the
   Machine_software arm, so it is billed to irq.msip. *)
let monitor_classes =
  [|
    "ecall.time"; "ecall.timer"; "ecall.ipi"; "ecall.rfence"; "ecall.console";
    "ecall.other"; "misaligned"; "fw"; "irq.msip"; "irq.mtip";
  |]

(* An OS read of the time CSR traps as an illegal instruction. *)
let is_time_read bits =
  let b = Int64.to_int bits in
  b land 0x7f = 0x73 && (b lsr 12) land 3 <> 0 && (b lsr 20) land 0xfff = Csr_addr.time

let classify (mir : Monitor.t) (hart : Hart.t) (cause : Cause.t) =
  match cause with
  | Cause.Interrupt Cause.Machine_software -> 8
  | Cause.Interrupt Cause.Machine_timer -> 9
  | _ when mir.Monitor.vharts.(hart.Hart.id).Vhart.world = Vhart.Firmware -> 7
  | Cause.Exception (Cause.Load_misaligned | Cause.Store_misaligned) -> 6
  | Cause.Exception Cause.Illegal_instr ->
      if is_time_read (Csr_file.read_raw hart.Hart.csr Csr_addr.mtval) then 0
      else 5
  | Cause.Exception (Cause.Ecall_from_s | Cause.Ecall_from_u) ->
      let ext = Hart.get hart 17 in
      if ext = Sbi.ext_time || ext = Sbi.ext_legacy_set_timer then 1
      else if ext = Sbi.ext_ipi then 2
      else if ext = Sbi.ext_rfence then 3
      else if ext = Sbi.ext_legacy_console_putchar || ext = Sbi.ext_dbcn then 4
      else 5
  | _ -> 5

let wrap_monitor tr (mir : Monitor.t) =
  let ids = Array.map (fun c -> Spans.id tr ("monitor." ^ c)) monitor_classes in
  let m = mir.Monitor.machine in
  match m.Machine.mmode_hook with
  | None -> ()
  | Some hook ->
      m.Machine.mmode_hook <-
        Some
          (fun m hart cause ->
            Spans.enter tr ids.(classify mir hart cause);
            match hook m hart cause with
            | () -> Spans.leave tr
            | exception e ->
                Spans.leave tr;
                raise e)

let wrap_policy tr (mir : Monitor.t) =
  let id = Spans.id tr "policy" in
  let w f ctx =
    Spans.enter tr id;
    match f ctx with
    | r ->
        Spans.leave tr;
        r
    | exception e ->
        Spans.leave tr;
        raise e
  in
  let w2 f ctx x = w (fun ctx -> f ctx x) ctx in
  let p = mir.Monitor.policy in
  mir.Monitor.policy <-
    {
      p with
      Policy.on_ecall_from_os = w p.Policy.on_ecall_from_os;
      on_trap_from_os = w2 p.Policy.on_trap_from_os;
      on_switch_to_fw = w p.Policy.on_switch_to_fw;
      on_ecall_from_fw = w p.Policy.on_ecall_from_fw;
      on_trap_from_fw = w2 p.Policy.on_trap_from_fw;
      on_switch_to_os = w p.Policy.on_switch_to_os;
      on_interrupt = w2 p.Policy.on_interrupt;
      pmp_entries = w p.Policy.pmp_entries;
    }

let instrument tr mir =
  wrap_monitor tr mir;
  wrap_policy tr mir

let wrap_oracles tr (inst : Scenario.instance) =
  let id = Spans.id tr "oracle" in
  {
    inst with
    Scenario.oracles =
      List.map
        (fun (o : Oracle.t) ->
          { o with Oracle.check = (fun () -> Spans.span tr id o.Oracle.check) })
        inst.Scenario.oracles;
  }

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let vfm_counters (s : Vfm_stats.t) =
  [
    ("vfm.traps_from_os", s.Vfm_stats.traps_from_os);
    ("vfm.traps_from_fw", s.Vfm_stats.traps_from_fw);
    ("vfm.world_switches", s.Vfm_stats.world_switches);
    ("vfm.emulated_instrs", s.Vfm_stats.emulated_instrs);
    ("vfm.vtraps", s.Vfm_stats.vtraps);
    ("vfm.offload.time", s.Vfm_stats.offload_time_read);
    ("vfm.offload.timer", s.Vfm_stats.offload_set_timer);
    ("vfm.offload.ipi", s.Vfm_stats.offload_ipi);
    ("vfm.offload.rfence", s.Vfm_stats.offload_rfence);
    ("vfm.offload.misaligned", s.Vfm_stats.offload_misaligned);
    ("vfm.vclint_accesses", s.Vfm_stats.vclint_accesses);
    ("vfm.pmp_remote_reinstalls", s.Vfm_stats.pmp_remote_reinstalls);
    ("vfm.ace_steals", s.Vfm_stats.ace_steals);
    ("vfm.ace_returns", s.Vfm_stats.ace_returns);
  ]

let machine_counters (m : Machine.t) =
  let b = Machine.block_stats m in
  let hits, misses, flushes = Machine.tlb_totals m in
  [
    ("machine.steps", m.Machine.instr_count);
    ("block.compiled", b.Mir_rv.Block.compiled);
    ("block.invalidated", b.Mir_rv.Block.invalidated);
    ("block.dispatches", b.Mir_rv.Block.dispatches);
    ("block.block_instrs", b.Mir_rv.Block.block_instrs);
    ("block.interp_instrs", b.Mir_rv.Block.interp_instrs);
    ("tlb.hits", hits);
    ("tlb.misses", misses);
    ("tlb.flushes", flushes);
  ]

let cycles (m : Machine.t) =
  Array.fold_left (fun acc (h : Hart.t) -> acc + h.Hart.cycles) 0 m.Machine.harts

(* A name-keyed bag of integer counts, summed across machines. *)
type counts = (string, int) Hashtbl.t

let add_counts (c : counts) kvs =
  List.iter
    (fun (k, v) ->
      Hashtbl.replace c k (v + Option.value ~default:0 (Hashtbl.find_opt c k)))
    kvs

let count (c : counts) k = Option.value ~default:0 (Hashtbl.find_opt c k)

let sorted (c : counts) =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) c [])
