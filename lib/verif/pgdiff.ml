(* Differential oracle for the memory-system fast paths.

   Two identically-configured machines execute the same stream of
   paging operations — page-table edits, satp switches, sfence.vma,
   SUM/MXR/MPRV flips, PMP reconfiguration, and S/U/M-mode memory
   probes — with exactly one difference: one machine runs the per-hart
   software TLB (and fetch-page cache), the other runs the raw Sv39
   walker on every access ([tlb_entries = 0]).  Every probe's outcome
   (value, store success, or trap cause) must agree, and at the end of
   the stream the two RAM images (which include PTE A/D bits) must
   hash identically.  Any disagreement is a TLB bug: a stale
   translation served after an event that must invalidate, or a cached
   permission/PMP verdict outliving its context.

   Fence discipline: operations that *edit PTE memory* are always
   followed by an sfence.vma (global or targeted), because serving a
   stale translation until the fence is architecturally legal — a
   divergence there would be noise, not signal.  satp switches,
   SUM/MXR/MPRV writes, and PMP reconfigurations are deliberately NOT
   fenced: the TLB must invalidate on its own at those events (via the
   CSR-file vm-epoch), and that is precisely the property this oracle
   checks. *)

module Machine = Mir_rv.Machine
module Memory = Mir_rv.Memory
module Bus = Mir_rv.Bus
module Hart = Mir_rv.Hart
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Csr_spec = Mir_rv.Csr_spec
module Cause = Mir_rv.Cause
module Priv = Mir_rv.Priv
module Vmem = Mir_rv.Vmem
module Pmp = Mir_rv.Pmp
module Ms = Csr_spec.Mstatus

(* ------------------------------------------------------------------ *)
(* Guest memory layout (offsets from ram_base; 512 KiB of RAM)         *)
(* ------------------------------------------------------------------ *)

let ram_size = 512 * 1024
let root0_off = 0x40000 (* L2 table behind satp0 *)
let root1_off = 0x41000 (* L2 table behind satp1 *)
let l1_off = function 0 -> 0x42000 | _ -> 0x43000
let l0_off root half = 0x44000 + (0x1000 * ((2 * root) + half))
let pool_off = 0x10000 (* data pages: 48 x 4 KiB *)
let pool_pages = 48

type access_kind = Aload | Astore | Afetch

type op =
  | Map of {
      root : int;  (* 0 or 1: which address space's tables to edit *)
      vpn : int;  (* 0..1023 *)
      page : int;  (* data-pool page index *)
      perms : int;  (* PTE low bits (V|R|W|X|U|A|D subset) *)
      fence_all : bool;  (* global vs per-address sfence afterwards *)
    }
  | Unmap of { root : int; vpn : int; fence_all : bool }
  | Sfence of { vaddr : int64 option }
  | Satp_switch of int  (* 0, 1, or 2 = bare *)
  | Sum_toggle
  | Mxr_toggle
  | Mprv_toggle  (* flips MPRV with MPP=S (probes M-mode translation) *)
  | Priv_set of Priv.t
  | Pmp_set of {
      slot : int;  (* 0..2; slot 7 stays the allow-all baseline *)
      base_page : int;  (* within the data pool *)
      npages : int;  (* power of two, for NAPOT *)
      perms : int;  (* R|W|X bits of the cfg byte *)
    }
  | Access of { kind : access_kind; vaddr : int64; size : int; value : int64 }

type outcome = Value of int64 | Stored | Fault of Cause.exc | Nothing

let outcome_to_string = function
  | Value v -> Printf.sprintf "value %#Lx" v
  | Stored -> "stored"
  | Fault e -> Printf.sprintf "fault %s" (Cause.to_string (Cause.Exception e))
  | Nothing -> "-"

(* ------------------------------------------------------------------ *)
(* One side of the differential pair                                   *)
(* ------------------------------------------------------------------ *)

type side = { machine : Machine.t; hart : Hart.t }

let create ~tlb_entries =
  let machine =
    Machine.create
      {
        Machine.default_config with
        Machine.ram_size;
        nharts = 1;
        tlb_entries;
      }
  in
  { machine; hart = machine.Machine.harts.(0) }

let ram_base t = t.machine.Machine.config.Machine.ram_base
let abs t off = Int64.add (ram_base t) (Int64.of_int off)

let store64 t off v = ignore (Machine.phys_store t.machine (abs t off) 8 v)

let pte_ptr t off =
  (* non-leaf PTE pointing at the table at [off] *)
  Int64.logor
    (Int64.shift_left
       (Int64.shift_right_logical (abs t off) 12)
       10)
    Vmem.pte_v

let pte_leaf_pool page perms =
  (* leaf PTE mapping one data-pool page with the given low bits *)
  let ppn =
    Int64.add
      (Int64.shift_right_logical 0x80000000L 12)
      (Int64.of_int ((pool_off lsr 12) + page))
  in
  Int64.logor (Int64.shift_left ppn 10) (Int64.of_int perms)

let satp_of_root t root =
  let off = if root = 0 then root0_off else root1_off in
  Int64.logor
    (Int64.shift_left 8L 60)
    (Int64.shift_right_logical (abs t off) 12)

(* Identity gigapage over the DRAM window (VPN2 = 2): superpage
   coverage, and the window probes read/write the same bytes the page
   tables themselves live in. *)
let giga_identity =
  Int64.logor
    (Int64.shift_left (Int64.shift_right_logical 0x80000000L 12) 10)
    (List.fold_left Int64.logor 0L
       [ Vmem.pte_v; Vmem.pte_r; Vmem.pte_w; Vmem.pte_x; Vmem.pte_a;
         Vmem.pte_d ])

let reset t =
  let ram = Bus.ram t.machine.Machine.bus in
  Memory.fill ram (ram_base t) ram_size '\000';
  Hart.reset t.hart ~pc:(ram_base t);
  let csr = t.hart.Hart.csr in
  (* deterministic CSR baseline (raw writes bump the vm-epoch) *)
  let reset_csr addr =
    match Csr_file.spec csr addr with
    | Some s -> Csr_file.write_raw csr addr s.Csr_spec.reset
    | None -> ()
  in
  reset_csr Csr_addr.mstatus;
  reset_csr Csr_addr.satp;
  List.iter reset_csr [ Csr_addr.pmpcfg 0; Csr_addr.pmpcfg 2 ];
  for i = 0 to (Csr_file.config csr).Csr_spec.pmp_count - 1 do
    reset_csr (Csr_addr.pmpaddr i)
  done;
  (* page-table skeleton: two address spaces sharing the layout *)
  store64 t root0_off (pte_ptr t (l1_off 0));
  store64 t root1_off (pte_ptr t (l1_off 1));
  store64 t (root0_off + (2 * 8)) giga_identity;
  store64 t (root1_off + (2 * 8)) giga_identity;
  store64 t (l1_off 0) (pte_ptr t (l0_off 0 0));
  store64 t ((l1_off 0) + 8) (pte_ptr t (l0_off 0 1));
  store64 t (l1_off 1) (pte_ptr t (l0_off 1 0));
  store64 t ((l1_off 1) + 8) (pte_ptr t (l0_off 1 1));
  (* PMP baseline: slot 7 = NAPOT allow-all, so S/U accesses work
     until a Pmp_set op interposes a higher-priority slot *)
  Csr_file.write csr (Csr_addr.pmpaddr 7) (-1L);
  Csr_file.write csr (Csr_addr.pmpcfg 0)
    (Int64.shift_left (Int64.of_int 0b0011111) 56);
  Csr_file.write csr Csr_addr.satp (satp_of_root t 0);
  t.hart.Hart.priv <- Priv.S

let pte_slot_off root vpn = l0_off root (vpn lsr 9) + (8 * (vpn land 511))

let apply t (op : op) : outcome =
  let csr = t.hart.Hart.csr in
  match op with
  | Map { root; vpn; page; perms; fence_all } ->
      store64 t (pte_slot_off root vpn) (pte_leaf_pool page perms);
      Machine.sfence_vma t.machine
        ?vaddr:
          (if fence_all then None
           else Some (Int64.of_int (vpn lsl 12)))
        ();
      Nothing
  | Unmap { root; vpn; fence_all } ->
      store64 t (pte_slot_off root vpn) 0L;
      Machine.sfence_vma t.machine
        ?vaddr:
          (if fence_all then None
           else Some (Int64.of_int (vpn lsl 12)))
        ();
      Nothing
  | Sfence { vaddr } ->
      Machine.sfence_vma t.machine ?vaddr ();
      Nothing
  | Satp_switch n ->
      (* no sfence: the satp write itself must invalidate *)
      Csr_file.write csr Csr_addr.satp
        (if n = 2 then 0L else satp_of_root t n);
      Nothing
  | Sum_toggle ->
      Csr_file.write csr Csr_addr.mstatus
        (Int64.logxor
           (Csr_file.read_raw csr Csr_addr.mstatus)
           (Int64.shift_left 1L Ms.sum));
      Nothing
  | Mxr_toggle ->
      Csr_file.write csr Csr_addr.mstatus
        (Int64.logxor
           (Csr_file.read_raw csr Csr_addr.mstatus)
           (Int64.shift_left 1L Ms.mxr));
      Nothing
  | Mprv_toggle ->
      let m = Csr_file.read_raw csr Csr_addr.mstatus in
      let m = Int64.logxor m (Int64.shift_left 1L Ms.mprv) in
      (* MPP = S so MPRV-mediated accesses translate *)
      let m =
        Int64.logor
          (Int64.logand m (Int64.lognot (Int64.shift_left 3L Ms.mpp_lo)))
          (Int64.shift_left 1L Ms.mpp_lo)
      in
      Csr_file.write_raw csr Csr_addr.mstatus m;
      Nothing
  | Priv_set p ->
      t.hart.Hart.priv <- p;
      Nothing
  | Pmp_set { slot; base_page; npages; perms } ->
      let base = abs t (pool_off + (base_page lsl 12)) in
      let size = Int64.of_int (npages lsl 12) in
      Csr_file.write csr (Csr_addr.pmpaddr slot)
        (Pmp.napot_encode ~base ~size);
      let cfg = Csr_file.read_raw csr (Csr_addr.pmpcfg 0) in
      let shift = 8 * slot in
      let byte = Int64.of_int (perms lor 0b11000) (* NAPOT *) in
      Csr_file.write csr (Csr_addr.pmpcfg 0)
        (Int64.logor
           (Int64.logand cfg
              (Int64.lognot (Int64.shift_left 0xFFL shift)))
           (Int64.shift_left byte shift));
      Nothing
  | Access { kind; vaddr; size; value } -> (
      try
        match kind with
        | Aload -> Value (Machine.vload t.machine t.hart vaddr size ~signed:false)
        | Astore ->
            Machine.vstore t.machine t.hart vaddr size value;
            Stored
        | Afetch ->
            Value
              (Machine.resolve t.machine t.hart ~priv:t.hart.Hart.priv
                 Vmem.Fetch vaddr 4)
      with Cause.Trap (e, _) -> Fault e)

(* ------------------------------------------------------------------ *)
(* Differential execution                                              *)
(* ------------------------------------------------------------------ *)

type divergence = {
  op_index : int;  (* -1: final RAM hash mismatch *)
  op : op option;  (* None: final RAM hash mismatch *)
  tlb_outcome : string;
  walker_outcome : string;
}

type pair = { tlb : side; walker : side }

let create_pair () =
  { tlb = create ~tlb_entries:16; walker = create ~tlb_entries:0 }

(* Run one op stream on both sides; [on_outcome] sees (op index, op,
   outcome) for coverage accounting.  Returns the first divergence. *)
let run_ops pair ~on_outcome ops =
  reset pair.tlb;
  reset pair.walker;
  let div = ref None in
  let i = ref 0 in
  (try
     List.iter
       (fun op ->
         let a = apply pair.tlb op in
         let b = apply pair.walker op in
         on_outcome !i op a;
         if a <> b then begin
           div :=
             Some
               {
                 op_index = !i;
                 op = Some op;
                 tlb_outcome = outcome_to_string a;
                 walker_outcome = outcome_to_string b;
               };
           raise Exit
         end;
         incr i)
       ops
   with Exit -> ());
  match !div with
  | Some _ as d -> d
  | None ->
      let hash side = Memory.hash (Bus.ram side.machine.Machine.bus) in
      let ha = hash pair.tlb and hb = hash pair.walker in
      if ha <> hb then
        Some
          {
            op_index = -1;
            op = None;
            tlb_outcome = Printf.sprintf "%#Lx" ha;
            walker_outcome = Printf.sprintf "%#Lx" hb;
          }
      else None
