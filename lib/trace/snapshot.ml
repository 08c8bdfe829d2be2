module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Csr_file = Mir_rv.Csr_file
module Memory = Mir_rv.Memory
module Bus = Mir_rv.Bus
module Clint = Mir_rv.Clint
module Plic = Mir_rv.Plic
module Uart = Mir_rv.Uart
module Blockdev = Mir_rv.Blockdev
module Nic = Mir_rv.Nic
module Priv = Mir_rv.Priv

type hart_state = {
  pc : int64;
  priv : Priv.t;
  wfi : bool;
  cycles : int64;
  instret : int64;
  irq_stale : int;
  reservation : int64 option;
  regs : int64 array;
  csrs : int64 array;
}

type device_state = {
  clint : Clint.state;
  plic : Plic.state;
  uart : Uart.state;
  blockdev : Blockdev.state option;
  nic : Nic.state option;
}

(* The root of a checkpoint chain copies all of RAM; every later
   checkpoint carries only the pages dirtied since the previous one
   plus a [prev] pointer. Restoring walks the chain root-forward. *)
type mem_delta = Full of bytes | Pages of (int * bytes) list

type t = {
  instrs : int64;
  events_before : int;
  harts : hart_state array;
  devices : device_state;
  mem : mem_delta;
  prev : t option;
  restore_extra : (unit -> unit) option;
}

let instrs t = t.instrs
let events_before t = t.events_before

let save_hart (h : Hart.t) =
  {
    pc = h.Hart.pc;
    priv = h.Hart.priv;
    wfi = h.Hart.wfi;
    cycles = Int64.of_int h.Hart.cycles;
    instret = Int64.of_int h.Hart.instret;
    irq_stale = h.Hart.irq_stale;
    reservation = h.Hart.reservation;
    regs = Array.init 32 (Hart.get h);
    csrs = Csr_file.dump h.Hart.csr;
  }

let restore_hart (h : Hart.t) s =
  h.Hart.pc <- s.pc;
  h.Hart.priv <- s.priv;
  h.Hart.wfi <- s.wfi;
  h.Hart.cycles <- Int64.to_int s.cycles;
  h.Hart.instret <- Int64.to_int s.instret;
  h.Hart.irq_stale <- s.irq_stale;
  h.Hart.reservation <- s.reservation;
  for i = 1 to 31 do Hart.set h i s.regs.(i) done;
  Csr_file.restore_dump h.Hart.csr s.csrs

let save_devices (m : Machine.t) =
  {
    clint = Clint.save_state m.Machine.clint;
    plic = Plic.save_state m.Machine.plic;
    uart = Uart.save_state m.Machine.uart;
    blockdev = Option.map Blockdev.save_state m.Machine.blockdev;
    nic = Option.map Nic.save_state m.Machine.nic;
  }

let restore_devices (m : Machine.t) d =
  Clint.load_state m.Machine.clint d.clint;
  Plic.load_state m.Machine.plic d.plic;
  Uart.load_state m.Machine.uart d.uart;
  (match (m.Machine.blockdev, d.blockdev) with
  | Some dev, Some s -> Blockdev.load_state dev s
  | _ -> ());
  match (m.Machine.nic, d.nic) with
  | Some dev, Some s -> Nic.load_state dev s
  | _ -> ()

let take ?prev ?(events_before = 0) ?restore_extra (m : Machine.t) =
  let ram = Bus.ram m.Machine.bus in
  let mem =
    match prev with
    | None -> Full (Memory.copy_all ram)
    | Some _ ->
        Pages (List.map (fun p -> (p, Memory.get_page ram p))
                 (Memory.dirty_pages ram))
  in
  (* From here on, "dirty" means dirty relative to this checkpoint. *)
  Memory.clear_dirty ram;
  {
    instrs = Int64.of_int m.Machine.instr_count;
    events_before;
    harts = Array.map save_hart m.Machine.harts;
    devices = save_devices m;
    mem;
    prev;
    restore_extra;
  }

let rec apply_mem ram t =
  (match t.prev with Some p -> apply_mem ram p | None -> ());
  match t.mem with
  | Full b -> Memory.restore_all ram b
  | Pages pages -> List.iter (fun (p, b) -> Memory.set_page ram p b) pages

let restore (m : Machine.t) t =
  let ram = Bus.ram m.Machine.bus in
  apply_mem ram t;
  Memory.clear_dirty ram;
  Array.iteri (fun i s -> restore_hart m.Machine.harts.(i) s) t.harts;
  restore_devices m t.devices;
  (match t.restore_extra with Some f -> f () | None -> ());
  m.Machine.instr_count <- Int64.to_int t.instrs;
  m.Machine.poweroff <- false;
  (* Both derived caches must drop: restored RAM invalidates decoded
     instructions, restored satp/PMP/page tables invalidate cached
     translations (the CSR restore also bumps the vm-epoch, but the
     explicit flush keeps the invariant independent of that path). *)
  Machine.flush_icache m;
  Machine.flush_tlbs m

(* ------------------------------------------------------------------ *)
(* Architectural state hash                                            *)
(* ------------------------------------------------------------------ *)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L
let mix h v = Int64.mul (Int64.logxor h v) fnv_prime

let hash (m : Machine.t) =
  let h = ref fnv_offset in
  let add v = h := mix !h v in
  Array.iter
    (fun (hart : Hart.t) ->
      add hart.Hart.pc;
      add (Int64.of_int (Priv.to_int hart.Hart.priv));
      add (if hart.Hart.wfi then 1L else 0L);
      (* a constant 0 per hart: the slot of a halted flag that no
         code ever set, kept so recorded hashes and digests still
         match *)
      add 0L;
      for i = 1 to 31 do
        add (Hart.get hart i)
      done;
      let csr = hart.Hart.csr in
      for a = 0 to 4095 do
        let v = Csr_file.read_raw csr a in
        if v <> 0L then begin
          add (Int64.of_int a);
          add v
        end
      done)
    m.Machine.harts;
  add (Memory.hash (Bus.ram m.Machine.bus));
  (* device-visible state: CLINT timers and the console transcript *)
  let clint = m.Machine.clint in
  for i = 0 to Clint.nharts clint - 1 do
    add (Clint.mtimecmp clint i);
    add (if Clint.msip clint i then 1L else 0L)
  done;
  String.iter
    (fun c -> add (Int64.of_int (Char.code c)))
    (Uart.output m.Machine.uart);
  !h

(* ------------------------------------------------------------------ *)
(* Periodic checkpoint manager                                         *)
(* ------------------------------------------------------------------ *)

type manager = {
  machine : Machine.t;
  every : int64;
  extra_save : (unit -> unit -> unit) option;
  events_seen : (unit -> int) option;
  mutable next_at : int64;
  mutable chain : t list; (* newest first; last element is the root *)
}

let checkpoints mgr = List.rev mgr.chain

let take_now mgr =
  let prev = match mgr.chain with [] -> None | c :: _ -> Some c in
  let events_before =
    match mgr.events_seen with Some f -> f () | None -> 0
  in
  let restore_extra = Option.map (fun f -> f ()) mgr.extra_save in
  let c = take ?prev ~events_before ?restore_extra mgr.machine in
  mgr.chain <- c :: mgr.chain;
  c

let manage ?extra_save ?events_seen ~every (machine : Machine.t) =
  if every <= 0L then invalid_arg "Snapshot.manage: every";
  let mgr =
    {
      machine;
      every;
      extra_save;
      events_seen;
      next_at = Int64.add (Int64.of_int machine.Machine.instr_count) every;
      chain = [];
    }
  in
  (* the root checkpoint anchors the chain at the current state *)
  ignore (take_now mgr);
  let prev_chunk = machine.Machine.on_chunk in
  machine.Machine.on_chunk <-
    Some
      (fun m ->
        (match prev_chunk with Some f -> f m | None -> ());
        if Int64.of_int m.Machine.instr_count >= mgr.next_at then begin
          ignore (take_now mgr);
          mgr.next_at <- Int64.add (Int64.of_int m.Machine.instr_count) mgr.every
        end);
  mgr
