(* Decoded basic-block engine tests.

   The engine's contract (DESIGN.md §11) is bit-exactness with the
   per-instruction interpreter at every step boundary.  These tests
   pin the three places that contract can silently rot:

   - step-count equivalence: [Machine.step_blocks ~budget] consumes
     exactly the budget and lands on the same architectural state as
     [budget] calls to [Machine.step], for every budget — including
     budgets that stop mid-block;
   - the invalidation matrix: self-modifying stores, fence.i, sfence
     (global and per-address), satp switches with no fence, PMP
     permission revocation, and snapshot restore must all prevent a
     stale compiled block from executing dead code;
   - determinism: fleet digests are bit-identical with the engine on
     or off, and a trace recorded under the engine replays green
     under the interpreter. *)

module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Block = Mir_rv.Block
module Instr = Mir_rv.Instr
module Encode = Mir_rv.Encode
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Alu = Mir_rv.Alu
module Cause = Mir_rv.Cause
module Priv = Mir_rv.Priv
module Pmp = Mir_rv.Pmp
module Vmem = Mir_rv.Vmem
module Prng = Mir_util.Prng
module Blockdiff = Mir_verif.Blockdiff
module Blockfuzz = Mir_fuzz.Blockfuzz
module Fleet = Mir_fleet.Fleet
module Snapshot = Mir_trace.Snapshot

let check_i64 = Alcotest.(check int64)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let enc i = Encode.encode i

let fail_divergence name (d : Blockdiff.divergence) =
  Alcotest.failf "%s: diverged at seg %d on %s (blocks=%s interp=%s)" name
    d.Blockdiff.seg_index d.Blockdiff.field d.Blockdiff.blocks_state
    d.Blockdiff.interp_state

(* ------------------------------------------------------------------ *)
(* Checked-in vectors replay green                                     *)
(* ------------------------------------------------------------------ *)

(* The checked-in vectors with the [blockdiff] header replay green
   through the blocks family's codec and the Blockdiff oracle. *)
let test_vectors_replay () =
  let v = Helpers.replay_family_vectors (module Blockfuzz) in
  check_int "block vectors" 8 (List.length v.Mir_fuzz.Difftest.vectors)

(* ------------------------------------------------------------------ *)
(* Step-count equivalence                                              *)
(* ------------------------------------------------------------------ *)

(* The same generated program, consumed through the engine with every
   budget from 1 to 80 in a single segment — so most budgets stop the
   engine mid-block — and once in 96 one-step segments (full
   per-step lockstep).  The interpreter side of [run_case] steps
   exactly the consumed count, so any off-by-one in the engine's
   budget accounting shows up as a state divergence. *)
let test_step_count_equivalence () =
  let rng = Prng.create ~seed:0xB10CB10CL in
  for _ = 1 to 3 do
    let base = Blockfuzz.gen_case rng in
    for k = 1 to 80 do
      match Blockdiff.run_case { base with Blockdiff.segs = [| k |] } with
      | None -> ()
      | Some d -> fail_divergence (Printf.sprintf "budget=%d" k) d
    done;
    match Blockdiff.run_case { base with Blockdiff.segs = Array.make 96 1 } with
    | None -> ()
    | Some d -> fail_divergence "per-step lockstep" d
  done

(* ------------------------------------------------------------------ *)
(* Direct machines for the invalidation matrix                         *)
(* ------------------------------------------------------------------ *)

let small_config =
  { Machine.default_config with Machine.ram_size = 64 * 1024; nharts = 1 }

let machine_of_words ?(config = small_config) ?(at = 0) words =
  let m = Machine.create config in
  let base = Int64.add config.Machine.ram_base (Int64.of_int at) in
  let img = Bytes.create (4 * Array.length words) in
  Array.iteri (fun i w -> Bytes.set_int32_le img (4 * i) (Int32.of_int w)) words;
  Machine.load_program m base img;
  let h = m.Machine.harts.(0) in
  Hart.reset h ~pc:base;
  (m, h)

(* Consume exactly [n] machine steps through the block engine. *)
let consume_blocks m h n =
  let c = ref 0 in
  while !c < n && not m.Machine.poweroff do
    c := !c + Machine.step_blocks m h ~budget:(n - !c)
  done;
  !c

let consume m h ~blocks n =
  if blocks then consume_blocks m h n
  else begin
    let c = ref 0 in
    while !c < n && not m.Machine.poweroff do
      Machine.step m h;
      incr c
    done;
    !c
  end

(* Architectural fingerprint compared across engines. *)
let fingerprint h =
  let csr = h.Hart.csr in
  ( h.Hart.pc,
    Priv.to_string h.Hart.priv,
    (Hart.get h 5, Hart.get h 6, Hart.get h 7),
    (h.Hart.cycles, h.Hart.instret),
    ( Csr_file.read_raw csr Csr_addr.mcause,
      Csr_file.read_raw csr Csr_addr.mepc ) )

let check_fingerprint name a b =
  let pa, ra, xa, ca, ta = fingerprint a and pb, rb, xb, cb, tb = fingerprint b in
  check_i64 (name ^ ": pc") pb pa;
  Alcotest.(check string) (name ^ ": priv") rb ra;
  let x5a, x6a, x7a = xa and x5b, x6b, x7b = xb in
  check_i64 (name ^ ": x5") x5b x5a;
  check_i64 (name ^ ": x6") x6b x6a;
  check_i64 (name ^ ": x7") x7b x7a;
  let cya, ia = ca and cyb, ib = cb in
  check_int (name ^ ": cycles") cyb cya;
  check_int (name ^ ": instret") ib ia;
  let mca, mea = ta and mcb, meb = tb in
  check_i64 (name ^ ": mcause") mcb mca;
  check_i64 (name ^ ": mepc") meb mea

(* ------------------------------------------------------------------ *)
(* Invalidation: self-modifying store on the cached page               *)
(* ------------------------------------------------------------------ *)

(* The loop stores into its own page every iteration (same bits, so
   execution never changes — but the engine cannot know that and must
   drop the page's blocks), then re-dispatches.  Stats must show both
   the invalidations and the recompiles. *)
let selfmod_words =
  [|
    enc (Instr.Op_imm (Instr.Addi, 6, 6, 1L));
    enc (Instr.Store { width = Instr.W; rs2 = 14; rs1 = 12; imm = 16L });
    enc (Instr.Op_imm (Instr.Addi, 7, 7, 1L));
    enc (Instr.Jal (0, -12L));
    enc Instr.Ebreak;
    (* slot 4: the store target; never executed *)
  |]

let setup_selfmod _m h =
  Hart.set h 12 small_config.Machine.ram_base;
  Hart.set h 14 (Int64.of_int (enc (Instr.Op_imm (Instr.Addi, 5, 5, 1L))))

let test_selfmod_store_invalidates () =
  let m, h = machine_of_words selfmod_words in
  setup_selfmod m h;
  let n = consume_blocks m h 80 in
  check_int "all steps consumed" 80 n;
  let s = Machine.block_stats m in
  check_bool "blocks compiled" true (s.Block.compiled >= 5);
  check_bool "blocks invalidated" true (s.Block.invalidated >= 5);
  check_bool "blocks dispatched" true (s.Block.dispatches >= 5);
  let r = Machine.block_hit_rate m in
  check_bool "hit rate in [0,1]" true (r >= 0. && r <= 1.);
  (* and the interpreter twin agrees on the architectural outcome *)
  let mi, hi = machine_of_words selfmod_words in
  setup_selfmod mi hi;
  let ni = consume mi hi ~blocks:false 80 in
  check_int "twin steps" n ni;
  check_fingerprint "selfmod" h hi;
  check_i64 "loop iterations counted" (Hart.get hi 6) (Hart.get h 6);
  check_bool "loop made progress" true (Hart.get h 6 >= 15L)

(* ------------------------------------------------------------------ *)
(* Invalidation: fence.i                                               *)
(* ------------------------------------------------------------------ *)

(* A hot loop compiles blocks, then a single fence.i falls through to
   a second loop: the flush must count the live blocks as invalidated
   and the second loop must compile fresh.  (A fence.i on every lap
   would legitimately never compile anything — blocks mirror the
   icache, and the flush keeps every word cold.) *)
let fence_words =
  [|
    enc (Instr.Op_imm (Instr.Addi, 5, 5, 1L));
    enc (Instr.Op_imm (Instr.Addi, 6, 0, 20L));
    enc (Instr.Branch (Instr.Bne, 5, 6, -8L));
    enc Instr.Fence_i;
    enc (Instr.Op_imm (Instr.Addi, 7, 7, 1L));
    enc (Instr.Jal (0, -4L));
  |]

let test_fence_i_flushes () =
  let m, h = machine_of_words fence_words in
  (* 20 laps x 3 steps, one fence.i, then the second loop *)
  let n = consume_blocks m h 91 in
  check_int "all steps consumed" 91 n;
  let s = Machine.block_stats m in
  check_bool "blocks compiled before and after the fence" true
    (s.Block.compiled >= 2);
  check_bool "fence.i invalidated the live blocks" true
    (s.Block.invalidated >= 1);
  check_bool "blocks dispatched" true (s.Block.dispatches >= 2);
  let mi, hi = machine_of_words fence_words in
  let ni = consume mi hi ~blocks:false 91 in
  check_int "twin steps" n ni;
  check_fingerprint "fence.i" h hi;
  check_i64 "first loop completed" 20L (Hart.get h 5);
  check_bool "second loop ran" true (Hart.get h 7 >= 10L)

(* ------------------------------------------------------------------ *)
(* Invalidation: Sv39 remaps, satp switches, PMP revocation            *)
(* ------------------------------------------------------------------ *)

(* S-mode spin loop at VA 0x4000, first mapped to a physical page
   whose loop increments x6; mid-run the mapping (or its permission)
   changes.  Blocks are physically indexed, so a stale translation —
   or a resident block surviving a vm-epoch bump — would keep
   incrementing x6 when the architecture says x7 (or a trap).  Each
   scenario runs under both engines and must land on identical
   state. *)

let pg_ram_size = 512 * 1024
let pg_config =
  { Machine.default_config with Machine.ram_size = pg_ram_size; nharts = 1 }

let root0_off = 0x40000
let root1_off = 0x41000
let l1a_off = 0x42000
let l1b_off = 0x43000
let l0a_off = 0x44000
let l0b_off = 0x45000
let page_a_off = 0x5000
let page_b_off = 0x6000
let va = 0x4000L (* vpn2 = 0, vpn1 = 0, vpn0 = 4 *)

let pabs off = Int64.add pg_config.Machine.ram_base (Int64.of_int off)
let pstore m off v = ignore (Machine.phys_store m (pabs off) 8 v)

let pte_ptr off =
  Int64.logor
    (Int64.shift_left (Int64.shift_right_logical (pabs off) 12) 10)
    Vmem.pte_v

let pte_leaf off =
  Int64.logor
    (Int64.shift_left (Int64.shift_right_logical (pabs off) 12) 10)
    (List.fold_left Int64.logor 0L
       [ Vmem.pte_v; Vmem.pte_r; Vmem.pte_w; Vmem.pte_x; Vmem.pte_a;
         Vmem.pte_d ])

let satp_of root_off =
  Int64.logor (Int64.shift_left 8L 60)
    (Int64.shift_right_logical (pabs root_off) 12)

let paging_machine () =
  let spin rd =
    [| enc (Instr.Op_imm (Instr.Addi, rd, rd, 1L)); enc (Instr.Jal (0, -4L)) |]
  in
  (* page A increments x6, page B increments x7 — same shape, so the
     loop continues seamlessly across a remap *)
  let m, h = machine_of_words ~config:pg_config ~at:page_a_off (spin 6) in
  let img = Bytes.create 8 in
  Array.iteri
    (fun i w -> Bytes.set_int32_le img (4 * i) (Int32.of_int w))
    (spin 7);
  Machine.load_program m (pabs page_b_off) img;
  (* two address spaces: root0 maps VA->page A, root1 maps VA->page B *)
  pstore m root0_off (pte_ptr l1a_off);
  pstore m l1a_off (pte_ptr l0a_off);
  pstore m (l0a_off + (8 * 4)) (pte_leaf page_a_off);
  pstore m root1_off (pte_ptr l1b_off);
  pstore m l1b_off (pte_ptr l0b_off);
  pstore m (l0b_off + (8 * 4)) (pte_leaf page_b_off);
  Hart.reset h ~pc:va;
  let csr = h.Hart.csr in
  (* PMP slot 7: NAPOT allow-all so S-mode runs until a higher-priority
     slot interposes *)
  Csr_file.write csr (Csr_addr.pmpaddr 7) (-1L);
  Csr_file.write csr (Csr_addr.pmpcfg 0)
    (Int64.shift_left (Int64.of_int 0b0011111) 56);
  Csr_file.write csr Csr_addr.satp (satp_of root0_off);
  h.Hart.priv <- Priv.S;
  (m, h)

type pg_event = Sfence_all | Sfence_va | Satp_switch | Pmp_revoke

let pg_event_name = function
  | Sfence_all -> "remap+sfence.vma(global)"
  | Sfence_va -> "remap+sfence.vma(vaddr)"
  | Satp_switch -> "satp switch, no fence"
  | Pmp_revoke -> "pmp exec revoke"

let run_paging event ~blocks =
  let m, h = paging_machine () in
  let n1 = consume m h ~blocks 51 in
  check_int "phase 1 steps" 51 n1;
  let csr = h.Hart.csr in
  (match event with
  | Sfence_all ->
      pstore m (l0a_off + (8 * 4)) (pte_leaf page_b_off);
      Machine.sfence_vma m ()
  | Sfence_va ->
      pstore m (l0a_off + (8 * 4)) (pte_leaf page_b_off);
      Machine.sfence_vma m ~vaddr:va ()
  | Satp_switch -> Csr_file.write csr Csr_addr.satp (satp_of root1_off)
  | Pmp_revoke ->
      (* slot 6 (higher priority than the allow-all slot 7) covers page
         A with read-only NAPOT: the very next fetch must fault *)
      Csr_file.write csr (Csr_addr.pmpaddr 6)
        (Pmp.napot_encode ~base:(pabs page_a_off) ~size:0x1000L);
      let cfg = Csr_file.read_raw csr (Csr_addr.pmpcfg 0) in
      Csr_file.write csr (Csr_addr.pmpcfg 0)
        (Int64.logor cfg (Int64.shift_left (Int64.of_int 0b0011001) 48)));
  let _ = consume m h ~blocks 51 in
  (m, h)

let test_paging_matrix () =
  List.iter
    (fun event ->
      let name = pg_event_name event in
      let _, hb = run_paging event ~blocks:true in
      let _, hi = run_paging event ~blocks:false in
      check_fingerprint name hb hi;
      match event with
      | Sfence_all | Sfence_va | Satp_switch ->
          (* the loop ran in page A before the event and page B after *)
          check_bool (name ^ ": ran page A") true (Hart.get hb 6 >= 20L);
          check_bool (name ^ ": switched to page B") true
            (Hart.get hb 7 >= 20L)
      | Pmp_revoke ->
          check_i64 (name ^ ": instruction access fault") 1L
            (Csr_file.read_raw hb.Hart.csr Csr_addr.mcause);
          check_i64 (name ^ ": page B never ran") 0L (Hart.get hb 7))
    [ Sfence_all; Sfence_va; Satp_switch; Pmp_revoke ]

(* ------------------------------------------------------------------ *)
(* Invalidation: snapshot restore                                      *)
(* ------------------------------------------------------------------ *)

(* Take a checkpoint mid-loop, patch the loop body (compiling new
   blocks), then restore: the spliced blocks must not survive the
   rewind — post-restore execution runs the restored code, and the
   whole sequence matches the interpreter bit-for-bit. *)
let snapshot_words =
  [| enc (Instr.Op_imm (Instr.Addi, 6, 6, 1L)); enc (Instr.Jal (0, -4L)) |]

let run_snapshot ~blocks =
  let m, h = machine_of_words snapshot_words in
  let _ = consume m h ~blocks 40 in
  let snap = Snapshot.take m in
  let h0 = Snapshot.hash m in
  (* patch slot 0 to increment x7 instead, as the verifier would *)
  let addr = small_config.Machine.ram_base in
  ignore
    (Machine.phys_store m addr 4
       (Int64.of_int (enc (Instr.Op_imm (Instr.Addi, 7, 7, 1L)))));
  Machine.invalidate_icache m addr 4;
  let _ = consume m h ~blocks 20 in
  check_bool "patched code ran" true (Hart.get h 7 >= 9L);
  Snapshot.restore m snap;
  check_i64 "restore rewinds the hash" h0 (Snapshot.hash m);
  let _ = consume m h ~blocks 30 in
  (m, h)

let test_snapshot_restore_drops_blocks () =
  let mb, hb = run_snapshot ~blocks:true in
  let _, hi = run_snapshot ~blocks:false in
  check_fingerprint "snapshot restore" hb hi;
  (* 2-instruction loop: 40 steps before the checkpoint, 30 after the
     rewind; the patched x7 increments are gone *)
  check_i64 "x6 resumed from the checkpoint" 35L (Hart.get hb 6);
  check_i64 "patched increments rolled back" 0L (Hart.get hb 7);
  check_i64 "final hashes agree" (Snapshot.hash mb)
    (let mi, _ = run_snapshot ~blocks:false in
     Snapshot.hash mi)

(* ------------------------------------------------------------------ *)
(* The compiled arms against their own reference                       *)
(* ------------------------------------------------------------------ *)

(* Both engines run [Machine.op_of_instr]'s arms, so a wrong arm moves
   them alike and blockdiff cannot see it. These tests step each
   unprivileged form once through the interpreter and check it against
   [Alu] and the ISA's formulas. Registers: rd = x3, rs1 = x1,
   rs2 = x2. *)

let arm_values =
  [ 0L; 1L; -1L; 2L; 31L; 32L; 63L; 64L; 0x7FFF_FFFFL; 0x8000_0000L;
    0xFFFF_FFFFL; Int64.min_int; Int64.max_int; 0x5555_5555_5555_5555L;
    0xAAAA_AAAA_AAAA_AAAAL ]

let shift_amounts n = List.init n Int64.of_int

(* the grid values that fit a 12-bit immediate, and its two extremes *)
let arm_imms =
  List.filter (fun v -> v >= -2048L && v <= 2047L) arm_values
  @ [ -2048L; 2047L ]

let arm_pc = Int64.add small_config.Machine.ram_base 0x100L

(* Write [instr] at [arm_pc], drop its decoded copy, load [regs] and
   interpret one step. *)
let step_arm m h instr regs =
  ignore (Machine.phys_store m arm_pc 4 (Int64.of_int (enc instr)));
  Machine.invalidate_icache m arm_pc 4;
  h.Hart.pc <- arm_pc;
  List.iter (fun (r, v) -> Hart.set h r v) regs;
  Machine.step m h

let expect instr (x1, x2) what got want =
  if got <> want then
    Alcotest.failf "%s with x1=%#Lx x2=%#Lx: %s = %#Lx, want %#Lx"
      (Instr.to_string instr) x1 x2 what got want

let test_alu_arms () =
  let m = Machine.create small_config in
  let h = m.Machine.harts.(0) in
  let check instr a b want =
    step_arm m h instr [ (1, a); (2, b) ];
    expect instr (a, b) "x3" (Hart.get h 3) want;
    expect instr (a, b) "pc" h.Hart.pc (Int64.add arm_pc 4L)
  in
  let over seconds f =
    List.iter (fun a -> List.iter (fun b -> f a b) seconds) arm_values
  in
  let rs2_values = arm_values @ shift_amounts 64 in
  List.iter
    (fun op ->
      over rs2_values (fun a b ->
          check (Instr.Op (op, 3, 1, 2)) a b (Alu.op op a b)))
    Instr.
      [ Add; Sub; Sll; Slt; Sltu; Xor; Srl; Sra; Or; And; Mul; Mulh;
        Mulhsu; Mulhu; Div; Divu; Rem; Remu ];
  List.iter
    (fun op ->
      over rs2_values (fun a b ->
          check (Instr.Op32 (op, 3, 1, 2)) a b (Alu.op32 op a b)))
    Instr.[ Addw; Subw; Sllw; Srlw; Sraw; Mulw; Divw; Divuw; Remw; Remuw ];
  List.iter
    (fun op ->
      let imms =
        match op with
        | Instr.Slli | Instr.Srli | Instr.Srai -> shift_amounts 64
        | _ -> arm_imms
      in
      over imms (fun a imm ->
          check (Instr.Op_imm (op, 3, 1, imm)) a imm (Alu.op_imm op a imm)))
    Instr.[ Addi; Slti; Sltiu; Xori; Ori; Andi; Slli; Srli; Srai ];
  List.iter
    (fun op ->
      let imms = if op = Instr.Addiw then arm_imms else shift_amounts 32 in
      over imms (fun a imm ->
          check
            (Instr.Op_imm32 (op, 3, 1, imm))
            a imm (Alu.op_imm32 op a imm)))
    Instr.[ Addiw; Slliw; Srliw; Sraiw ]

let test_branch_arms () =
  let m = Machine.create small_config in
  let h = m.Machine.harts.(0) in
  List.iter
    (fun op ->
      List.iter
        (fun off ->
          let instr = Instr.Branch (op, 1, 2, off) in
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  step_arm m h instr [ (1, a); (2, b) ];
                  expect instr (a, b) "pc" h.Hart.pc
                    (Int64.add arm_pc
                       (if Alu.branch_taken op a b then off else 4L)))
                arm_values)
            arm_values)
        [ 0x40L; -0x100L ])
    Instr.[ Beq; Bne; Blt; Bge; Bltu; Bgeu ]

(* lui, auipc, jal and jalr against the ISA's formulas, including
   rd = rs1 and misaligned targets, which trap before rd is written. *)
let test_jump_arms () =
  let m = Machine.create small_config in
  let h = m.Machine.harts.(0) in
  let old = 0x5A5A_5A5A_5A5A_5A5AL in
  let check instr ~x1 ~rd ~rd_want ~pc_want =
    step_arm m h instr [ (1, x1); (3, old) ];
    expect instr (x1, 0L) (Instr.reg_name rd) (Hart.get h rd) rd_want;
    expect instr (x1, 0L) "pc" h.Hart.pc pc_want
  in
  let check_misaligned instr ~x1 ~rd ~target =
    let cause = Cause.Exception Cause.Instr_misaligned in
    let csr = Csr_file.read_raw h.Hart.csr in
    check instr ~x1 ~rd
      ~rd_want:(if rd = 1 then x1 else old)
      ~pc_want:(Cause.tvec_target (csr Csr_addr.mtvec) cause);
    expect instr (x1, 0L) "mcause" (csr Csr_addr.mcause)
      (Cause.to_xcause cause);
    expect instr (x1, 0L) "mtval" (csr Csr_addr.mtval) target;
    expect instr (x1, 0L) "mepc" (csr Csr_addr.mepc) arm_pc
  in
  let next = Int64.add arm_pc 4L in
  List.iter
    (fun imm ->
      check (Instr.Lui (3, imm)) ~x1:0L ~rd:3 ~rd_want:imm ~pc_want:next;
      check (Instr.Auipc (3, imm)) ~x1:0L ~rd:3
        ~rd_want:(Int64.add arm_pc imm) ~pc_want:next)
    [ 0L; 0x1000L; 0x7FFF_F000L; -0x1000L; -0x8000_0000L ];
  List.iter
    (fun off ->
      check (Instr.Jal (3, off)) ~x1:0L ~rd:3 ~rd_want:next
        ~pc_want:(Int64.add arm_pc off))
    [ 0x40L; -0x100L ];
  let at k = Int64.add arm_pc k in
  (* (rd, off, x1, target): the low bit of x1 + off is cleared *)
  List.iter
    (fun (rd, off, x1, target) ->
      check (Instr.Jalr (rd, 1, off)) ~x1 ~rd ~rd_want:next ~pc_want:target)
    [
      (3, 0L, at 0x40L, at 0x40L);
      (3, -4L, at 0x44L, at 0x40L);
      (3, 0L, at 0x41L, at 0x40L);
      (3, 1L, at 0x40L, at 0x40L);
      (1, 8L, at 0x38L, at 0x40L);
    ];
  (* misaligned targets trap to mtvec with the target in mtval *)
  check_misaligned (Instr.Jal (3, 2L)) ~x1:0L ~rd:3 ~target:(at 2L);
  check_misaligned (Instr.Jalr (3, 1, 0L)) ~x1:(at 0x42L) ~rd:3
    ~target:(at 0x42L);
  check_misaligned (Instr.Jalr (1, 1, 2L)) ~x1:(at 0x40L) ~rd:1
    ~target:(at 0x42L);
  check_misaligned
    (Instr.Branch (Instr.Beq, 0, 0, 6L))
    ~x1:0L ~rd:3 ~target:(at 6L)

(* Loads and stores at every width against the ISA's formulas: a load
   reads the low [8w] bits at rs1 + imm and sign- or zero-extends them;
   a store writes the low [w] bytes of rs2 there and no other byte. The
   loaded doublewords have the sign bit of every width set, then clear. *)
let test_load_store_arms () =
  let m = Machine.create small_config in
  let h = m.Machine.harts.(0) in
  let data = Int64.add small_config.Machine.ram_base 0x800L in
  let next = Int64.add arm_pc 4L in
  let mem off = Option.get (Machine.phys_load m (Int64.add data off) 8) in
  let widths = Instr.[ (B, 1); (H, 2); (W, 4); (D, 8) ] in
  let extend v bytes ~unsigned =
    let sh = 64 - (8 * bytes) in
    let up = Int64.shift_left v sh in
    if unsigned then Int64.shift_right_logical up sh
    else Int64.shift_right up sh
  in
  List.iter
    (fun word ->
      ignore (Machine.phys_store m data 8 word);
      List.iter
        (fun (width, bytes) ->
          List.iter
            (fun (unsigned, rd) ->
              let instr =
                Instr.Load { width; unsigned; rd; rs1 = 1; imm = -8L }
              in
              let x1 = Int64.add data 8L in
              step_arm m h instr [ (1, x1); (3, 0x5A5A_5A5A_5A5A_5A5AL) ];
              expect instr (x1, 0L) (Instr.reg_name rd) (Hart.get h rd)
                (extend word bytes ~unsigned);
              expect instr (x1, 0L) "pc" h.Hart.pc next)
            (if width = Instr.D then [ (false, 3); (false, 1) ]
             else [ (false, 3); (true, 3); (false, 1) ]))
        widths)
    [ 0x8899_AABB_CCDD_EEFFL; 0x0102_0304_0506_0708L ];
  let background = 0x0F1E_2D3C_4B5A_6978L in
  let value = 0xF0E1_D2C3_B4A5_9687L in
  List.iter
    (fun (width, bytes) ->
      List.iter
        (fun off ->
          ignore (Machine.phys_store m (Int64.add data off) 8 background))
        [ 0L; 8L; 16L ];
      let instr = Instr.Store { width; rs2 = 2; rs1 = 1; imm = 8L } in
      step_arm m h instr [ (1, data); (2, value) ];
      let kept =
        if bytes = 8 then 0L else Int64.shift_left (-1L) (8 * bytes)
      in
      expect instr (data, value) "mem[x1 + 8]" (mem 8L)
        (Int64.logor (Int64.logand background kept)
           (Int64.logand value (Int64.lognot kept)));
      expect instr (data, value) "mem[x1]" (mem 0L) background;
      expect instr (data, value) "mem[x1 + 16]" (mem 16L) background;
      expect instr (data, value) "x2" (Hart.get h 2) value;
      expect instr (data, value) "pc" h.Hart.pc next)
    widths

(* ------------------------------------------------------------------ *)
(* Determinism: fleet digests and cross-engine replay                  *)
(* ------------------------------------------------------------------ *)

let small_spec =
  {
    Fleet.default_spec with
    Fleet.machines = 4;
    domains = 1;
    duration_ms = 0.2;
    workload = "mix";
  }

let test_fleet_engine_invariance () =
  let on = Fleet.run { small_spec with Fleet.block_engine = true } in
  let off = Fleet.run { small_spec with Fleet.block_engine = false } in
  Array.iteri
    (fun i (a : Fleet.machine_result) ->
      let b = off.Fleet.results.(i) in
      check_i64 (Printf.sprintf "machine %d digest" i) b.Fleet.digest
        a.Fleet.digest;
      check_i64 (Printf.sprintf "machine %d instrs" i) b.Fleet.instrs
        a.Fleet.instrs;
      check_int (Printf.sprintf "machine %d traps" i) b.Fleet.traps
        a.Fleet.traps)
    on.Fleet.results;
  check_i64 "fleet digest"
    (Fleet.aggregate off).Fleet.fleet_digest
    (Fleet.aggregate on).Fleet.fleet_digest

let test_record_blocks_replay_interp () =
  let spec =
    {
      small_spec with
      Fleet.machines = 2;
      record_machine = Some 1;
      block_engine = true;
    }
  in
  let res = Fleet.run spec in
  let events = res.Fleet.results.(1).Fleet.events in
  check_bool "events recorded under the engine" true (events <> []);
  match
    Fleet.replay_machine { spec with Fleet.block_engine = false } ~id:1 ~events
  with
  | Mir_trace.Replay.Match { verified } ->
      check_bool "events verified" true (verified > 0)
  | outcome ->
      Alcotest.failf "cross-engine replay: %s"
        (Format.asprintf "%a" Mir_trace.Replay.pp_outcome outcome)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "blocks"
    [
      ( "oracle",
        [
          Alcotest.test_case "checked-in vectors replay green" `Quick
            test_vectors_replay;
          Alcotest.test_case "step-count equivalence (all budgets)" `Quick
            test_step_count_equivalence;
        ] );
      ( "arms",
        [
          Alcotest.test_case "alu forms match Alu" `Quick test_alu_arms;
          Alcotest.test_case "branches match Alu.branch_taken" `Quick
            test_branch_arms;
          Alcotest.test_case "lui, auipc, jal, jalr" `Quick test_jump_arms;
          Alcotest.test_case "loads and stores" `Quick test_load_store_arms;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "self-modifying store" `Quick
            test_selfmod_store_invalidates;
          Alcotest.test_case "fence.i flushes" `Quick test_fence_i_flushes;
          Alcotest.test_case "sfence/satp/pmp matrix" `Quick
            test_paging_matrix;
          Alcotest.test_case "snapshot restore" `Quick
            test_snapshot_restore_drops_blocks;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fleet digests engine-invariant" `Slow
            test_fleet_engine_invariance;
          Alcotest.test_case "record under blocks, replay interpreted" `Slow
            test_record_blocks_replay_interp;
        ] );
    ]
