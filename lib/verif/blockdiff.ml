(* Differential oracle for the decoded basic-block engine.

   Two identically-configured machines execute the same generated
   guest program over the same lockstep schedule, with exactly one
   difference: one side consumes steps through [Machine.step_blocks]
   (the decoded basic-block engine), the other calls the
   per-instruction interpreter [Machine.step] the same number of
   times.  The engine's contract is bit-exactness at every step
   boundary, so after each segment the complete architectural picture
   — pc, privilege, every register, the observable CSR file, cycle /
   instret / global step counters, WFI and halt state — must agree,
   and at the end of the case the two RAM images (which include any
   self-modified code) must hash identically.  Any disagreement is an
   engine bug: a stale block surviving an invalidation event, counter
   bookkeeping drifting across a batched pure run, a trap landing with
   the wrong pc, or an interrupt-staleness window shifted by the
   resident self-chain loop.

   The guest program is adversarial by construction (see
   [Mir_fuzz.Blockfuzz]): straight-line ALU runs, tight loops,
   branches and jumps with occasionally misaligned targets, loads /
   stores / AMOs that trap mid-block, stores into the program's own
   code pages (block invalidation), CSR traffic that bumps the
   vm-epoch (satp, pmpaddr), fence.i, ecall / ebreak / mret — all
   running under a trap handler that skips the faulting instruction
   when the resume point stays inside the code window and restarts
   the program otherwise, so no generated stream can wedge either
   machine somewhere the other can't follow.

   Layout (offsets from ram_base; 64 KiB of RAM):
     0x0100  trap handler (mtvec, direct mode; clobbers x29-x31)
     0x0E00  code window, 0x400 bytes — deliberately straddling the
             first 4 KiB page boundary so blocks and their
             invalidation get exercised across pages
     0x2000  data window, one 4 KiB page, PRNG-filled
   Registers x10-x15 are pinned pointers / payloads (data and code
   window bases, two valid instruction encodings for self-modifying
   stores) that generated code never overwrites. *)

module Machine = Mir_rv.Machine
module Memory = Mir_rv.Memory
module Bus = Mir_rv.Bus
module Hart = Mir_rv.Hart
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Instr = Mir_rv.Instr
module Encode = Mir_rv.Encode
module Priv = Mir_rv.Priv
module Prng = Mir_util.Prng

(* ------------------------------------------------------------------ *)
(* Guest layout                                                        *)
(* ------------------------------------------------------------------ *)

let ram_size = 64 * 1024
let handler_off = 0x100
let code_off = 0xE00
let code_span = 0x400 (* max 256 instruction slots *)
let data_off = 0x2000
let max_words = code_span / 4

(* The M-mode trap handler: skip the faulting instruction if mepc+4
   still lands inside the code window, otherwise restart the program
   at the window base.  The bounds check is what keeps wild jumps
   (jalr through a garbage register, mret to a stale mepc) from
   wedging both machines outside fetchable memory. *)
let handler =
  [
    (* x30 <- mepc + 4 *)
    Instr.Csr { op = Instr.Csrrs; rd = 30; src = Instr.Reg 0; csr = Csr_addr.mepc };
    Instr.Op_imm (Instr.Addi, 30, 30, 4L);
    (* x31 <- code window base (auipc at handler_off + 8) *)
    Instr.Auipc (31, 0x1000L);
    Instr.Op_imm
      (Instr.Addi, 31, 31, Int64.of_int (code_off - handler_off - 8 - 0x1000));
    Instr.Branch (Instr.Blt, 30, 31, 20L);
    Instr.Op_imm (Instr.Addi, 29, 31, Int64.of_int code_span);
    Instr.Branch (Instr.Bge, 30, 29, 12L);
    Instr.Csr { op = Instr.Csrrw; rd = 0; src = Instr.Reg 30; csr = Csr_addr.mepc };
    Instr.Mret;
    (* out of window: restart at the code base *)
    Instr.Csr { op = Instr.Csrrw; rd = 0; src = Instr.Reg 31; csr = Csr_addr.mepc };
    Instr.Mret;
  ]

(* Payload words for self-modifying stores: real instructions, so a
   store into the code window can splice live code, not just garbage
   that traps as illegal. *)
let payload_a = Encode.encode (Instr.Op_imm (Instr.Addi, 5, 5, 1L))
let payload_b = Encode.encode (Instr.Jal (0, 8L))

(* ------------------------------------------------------------------ *)
(* Cases                                                               *)
(* ------------------------------------------------------------------ *)

type case = {
  seed : int64;  (** seeds registers and the data page *)
  words : int array;  (** instruction encodings, loaded at the code base *)
  segs : int array;  (** lockstep segment budgets, in machine steps *)
}

let pp_case fmt c =
  Format.fprintf fmt "seed=0x%Lx %d words, %d segments (%d steps)" c.seed
    (Array.length c.words) (Array.length c.segs)
    (Array.fold_left ( + ) 0 c.segs)

(* ------------------------------------------------------------------ *)
(* One side of the differential pair                                   *)
(* ------------------------------------------------------------------ *)

type side = { machine : Machine.t; hart : Hart.t }

let create_side ~block_engine =
  let machine =
    Machine.create { Machine.default_config with Machine.ram_size; nharts = 1 }
  in
  Machine.set_block_engine machine block_engine;
  { machine; hart = machine.Machine.harts.(0) }

let ram_base s = s.machine.Machine.config.Machine.ram_base
let abs s off = Int64.add (ram_base s) (Int64.of_int off)

let set_word img off w =
  for b = 0 to 3 do
    Bytes.set img (off + b) (Char.chr ((w lsr (8 * b)) land 0xFF))
  done

let setup side case =
  let n = Array.length case.words in
  if n = 0 || n > max_words then
    invalid_arg "Blockdiff.setup: code must be 1..256 words";
  let prng = Prng.create ~seed:case.seed in
  (* deterministic data-page contents first (so loads see real bits),
     then the image load, which flushes the icache and block cache *)
  for i = 0 to 511 do
    ignore
      (Machine.phys_store side.machine
         (abs side (data_off + (8 * i)))
         8 (Prng.next prng))
  done;
  let img = Bytes.make (code_off + (4 * n)) '\000' in
  List.iteri
    (fun i ins -> set_word img (handler_off + (4 * i)) (Encode.encode ins))
    handler;
  Array.iteri (fun i w -> set_word img (code_off + (4 * i)) w) case.words;
  Machine.load_program side.machine (ram_base side) img;
  Hart.reset side.hart ~pc:(abs side code_off);
  for r = 1 to 31 do
    Hart.set side.hart r (Prng.next prng)
  done;
  (* pinned pointers and payloads (generated code never writes 10-15) *)
  Hart.set side.hart 10 (abs side data_off);
  Hart.set side.hart 11 (abs side (data_off + 0x800));
  Hart.set side.hart 12 (abs side code_off);
  Hart.set side.hart 13 (abs side (code_off + 0x200));
  Hart.set side.hart 14 (Int64.of_int payload_a);
  Hart.set side.hart 15 (Int64.of_int payload_b);
  Csr_file.write_raw side.hart.Hart.csr Csr_addr.mtvec (abs side handler_off)

(* ------------------------------------------------------------------ *)
(* State comparison                                                    *)
(* ------------------------------------------------------------------ *)

let reg_names = Array.init 32 (fun i -> "x" ^ string_of_int i)

let csr_probe =
  [|
    ("mstatus", Csr_addr.mstatus); ("mepc", Csr_addr.mepc);
    ("mcause", Csr_addr.mcause); ("mtval", Csr_addr.mtval);
    ("mscratch", Csr_addr.mscratch); ("sscratch", Csr_addr.sscratch);
    ("satp", Csr_addr.satp); ("mie", Csr_addr.mie); ("mip", Csr_addr.mip);
    ("mtvec", Csr_addr.mtvec); ("stvec", Csr_addr.stvec);
    ("sepc", Csr_addr.sepc); ("scause", Csr_addr.scause);
    ("stval", Csr_addr.stval); ("medeleg", Csr_addr.medeleg);
    ("mideleg", Csr_addr.mideleg); ("pmpcfg0", Csr_addr.pmpcfg 0);
    ("pmpaddr0", Csr_addr.pmpaddr 0); ("pmpaddr1", Csr_addr.pmpaddr 1);
  |]

(* First architectural mismatch, as (field, block-side, interp-side);
   strings are only materialized on a mismatch. *)
let compare_sides a b =
  let diff = ref None in
  let chk64 name va vb =
    if !diff = None && va <> vb then
      diff :=
        Some (name, Printf.sprintf "%#Lx" va, Printf.sprintf "%#Lx" vb)
  in
  let chki name va vb =
    if !diff = None && va <> vb then
      diff := Some (name, string_of_int va, string_of_int vb)
  in
  let chkb name va vb =
    if !diff = None && va <> vb then
      diff := Some (name, string_of_bool va, string_of_bool vb)
  in
  chk64 "pc" a.hart.Hart.pc b.hart.Hart.pc;
  if !diff = None && a.hart.Hart.priv <> b.hart.Hart.priv then
    diff :=
      Some
        ( "priv",
          Priv.to_string a.hart.Hart.priv,
          Priv.to_string b.hart.Hart.priv );
  chkb "wfi" a.hart.Hart.wfi b.hart.Hart.wfi;
  chkb "poweroff" a.machine.Machine.poweroff b.machine.Machine.poweroff;
  chki "cycles" a.hart.Hart.cycles b.hart.Hart.cycles;
  chki "instret" a.hart.Hart.instret b.hart.Hart.instret;
  chki "instr_count" a.machine.Machine.instr_count
    b.machine.Machine.instr_count;
  for r = 1 to 31 do
    chk64 reg_names.(r) (Hart.get a.hart r) (Hart.get b.hart r)
  done;
  Array.iter
    (fun (name, addr) ->
      chk64 name
        (Csr_file.read_raw a.hart.Hart.csr addr)
        (Csr_file.read_raw b.hart.Hart.csr addr))
    csr_probe;
  !diff

(* ------------------------------------------------------------------ *)
(* Differential execution                                              *)
(* ------------------------------------------------------------------ *)

type divergence = {
  seg_index : int;  (** -1 when the final RAM hashes disagree *)
  field : string;
  blocks_state : string;
  interp_state : string;
}

type seg_view = {
  steps : int;
  priv : Priv.t;
  cause : int64;  (** raw mcause after the segment *)
  region : int;  (** pc: 0 = code window, 1 = elsewhere in RAM, 2 = outside *)
  wfi : bool;
}

let view side steps =
  let pc = side.hart.Hart.pc in
  let base = ram_base side in
  let region =
    if pc >= abs side code_off && pc < abs side (code_off + code_span) then 0
    else if pc >= base && pc < Int64.add base (Int64.of_int ram_size) then 1
    else 2
  in
  {
    steps;
    priv = side.hart.Hart.priv;
    cause = Csr_file.read_raw side.hart.Hart.csr Csr_addr.mcause;
    region;
    wfi = side.hart.Hart.wfi;
  }

(* Run one case on a fresh pair; [on_segment] sees (segment index,
   block-side view) for coverage accounting.  Returns the first
   divergence. *)
let run_case ?(on_segment = fun _ _ -> ()) case =
  let a = create_side ~block_engine:true in
  let b = create_side ~block_engine:false in
  setup a case;
  setup b case;
  let div = ref None in
  (try
     Array.iteri
       (fun si budget ->
         let consumed = ref 0 in
         while !consumed < budget && not a.machine.Machine.poweroff do
           consumed :=
             !consumed
             + Machine.step_blocks a.machine a.hart
                 ~budget:(budget - !consumed)
         done;
         (* the interpreter side replays exactly the consumed count,
            so the comparison lands on the same step boundary *)
         for _ = 1 to !consumed do
           Machine.step b.machine b.hart
         done;
         on_segment si (view a !consumed);
         (match compare_sides a b with
         | Some (field, av, bv) ->
             div :=
               Some
                 { seg_index = si; field; blocks_state = av; interp_state = bv };
             raise Exit
         | None -> ());
         if a.machine.Machine.poweroff then raise Exit)
       case.segs
   with Exit -> ());
  match !div with
  | Some _ as d -> d
  | None ->
      let hash s = Memory.hash (Bus.ram s.machine.Machine.bus) in
      let ha = hash a and hb = hash b in
      if ha <> hb then
        Some
          {
            seg_index = -1;
            field = "ram hash";
            blocks_state = Printf.sprintf "%#Lx" ha;
            interp_state = Printf.sprintf "%#Lx" hb;
          }
      else None
