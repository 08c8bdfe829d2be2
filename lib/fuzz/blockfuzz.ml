(* Block-engine differential fuzzer.

   Generates adversarial guest programs for [Mir_verif.Blockdiff]: the
   decoded basic-block engine against the per-instruction interpreter
   over the same lockstep schedule.  Where pgfuzz streams *paging
   operations* at a machine pair, this class streams *code* — the
   block engine's attack surface is program shape, so generation
   leans on exactly the structures the engine optimizes:

     - long pure ALU runs (batched bookkeeping, pc materialization);
     - tight loops and self-branches (tier-1 chains, the resident
       spin loop, irq-staleness arithmetic);
     - branches / jal / jalr with occasionally misaligned targets
       (mid-block traps from the control terminator);
     - loads / stores / AMOs that fault mid-block on wild or
       misaligned addresses;
     - stores into the program's own code window, splicing real
       instruction encodings (physical-side block invalidation);
     - CSR writes that bump the vm-epoch (satp, pmpaddr), fence.i,
       ecall / ebreak / mret (delegate terminators, virtual-side
       invalidation).

   WFI is deliberately not generated: with interrupts masked it
   would idle away the step budget without exercising anything.
   Generation is deterministic from the root seed via the same
   config-rooted PRNG streams as everything else; a coarse edge map
   over block-side segment summaries (pc region x privilege x mcause
   x wfi) shows a campaign actually reached traps, privilege drops
   and out-of-window excursions.  Divergences are shrunk by NOP
   substitution plus segment truncation before being reported, so a
   reproduction vector is close to minimal.  The campaign, replay and
   report are {!Difftest}'s. *)

module Prng = Mir_util.Prng
module Blockdiff = Mir_verif.Blockdiff
module Instr = Mir_rv.Instr
module Encode = Mir_rv.Encode
module Csr_addr = Mir_rv.Csr_addr
module Priv = Mir_rv.Priv
module Event = Mir_trace.Event

(* ------------------------------------------------------------------ *)
(* Program generation                                                  *)
(* ------------------------------------------------------------------ *)

(* Destination pool: x10-x15 are Blockdiff's pinned pointers/payloads
   and must never be overwritten, so loads, ALU results and links go
   elsewhere (x29-x31 are trap-handler scratch — legal here, both
   sides clobber them identically). *)
let dst_pool =
  [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 16; 17; 18; 19; 20; 21; 22; 23; 24; 25; 26;
     27; 28; 29; 30; 31 |]

let dst prng = Prng.choose prng dst_pool
let any_reg prng = Prng.int_below prng 32

let alu_ops =
  [| Instr.Add; Instr.Sub; Instr.Sll; Instr.Slt; Instr.Sltu; Instr.Xor;
     Instr.Srl; Instr.Sra; Instr.Or; Instr.And; Instr.Mul; Instr.Mulh;
     Instr.Mulhsu; Instr.Mulhu; Instr.Div; Instr.Divu; Instr.Rem;
     Instr.Remu |]

let alu32_ops =
  [| Instr.Addw; Instr.Subw; Instr.Sllw; Instr.Srlw; Instr.Sraw; Instr.Mulw;
     Instr.Divw; Instr.Divuw; Instr.Remw; Instr.Remuw |]

let imm_ops =
  [| Instr.Addi; Instr.Slti; Instr.Sltiu; Instr.Xori; Instr.Ori; Instr.Andi |]

let branch_ops =
  [| Instr.Beq; Instr.Bne; Instr.Blt; Instr.Bge; Instr.Bltu; Instr.Bgeu |]

let widths = [| Instr.B; Instr.H; Instr.W; Instr.D |]

let amo_ops =
  [| Instr.Lr; Instr.Sc; Instr.Swap; Instr.Amoadd; Instr.Amoxor;
     Instr.Amoand; Instr.Amoor; Instr.Amomin; Instr.Amomax; Instr.Amominu;
     Instr.Amomaxu |]

(* CSRs generated code may write: scratch space, trap plumbing the
   handler rereads anyway, and the vm-epoch bumpers (satp, pmpaddr
   with their cfg slots disabled) whose writes must invalidate cached
   blocks without changing M-mode execution. *)
let csr_write_targets =
  [| Csr_addr.mscratch; Csr_addr.sscratch; Csr_addr.mepc; Csr_addr.mcause;
     Csr_addr.mtval; Csr_addr.satp; Csr_addr.pmpaddr 0; Csr_addr.pmpaddr 1 |]

(* CSRs worth reading: the block engine defers cycle/instret updates
   across pure runs, and a mid-block csrr of a counter must still see
   the fully flushed value. *)
let csr_read_targets =
  [| Csr_addr.mcycle; Csr_addr.minstret; Csr_addr.cycle; Csr_addr.instret;
     Csr_addr.mhartid; Csr_addr.mstatus; Csr_addr.mip; Csr_addr.mscratch;
     Csr_addr.satp |]

let gen_alu prng =
  match Prng.int_below prng 6 with
  | 0 -> Instr.Op (Prng.choose prng alu_ops, dst prng, any_reg prng, any_reg prng)
  | 1 ->
      Instr.Op32 (Prng.choose prng alu32_ops, dst prng, any_reg prng, any_reg prng)
  | 2 ->
      Instr.Op_imm
        ( Prng.choose prng imm_ops,
          dst prng,
          any_reg prng,
          Int64.of_int (Prng.int_below prng 4096 - 2048) )
  | 3 ->
      let op =
        match Prng.int_below prng 3 with
        | 0 -> Instr.Slli
        | 1 -> Instr.Srli
        | _ -> Instr.Srai
      in
      Instr.Op_imm
        (op, dst prng, any_reg prng, Int64.of_int (Prng.int_below prng 64))
  | 4 ->
      if Prng.bool prng then
        Instr.Op_imm32
          ( Instr.Addiw,
            dst prng,
            any_reg prng,
            Int64.of_int (Prng.int_below prng 4096 - 2048) )
      else
        let op =
          match Prng.int_below prng 3 with
          | 0 -> Instr.Slliw
          | 1 -> Instr.Srliw
          | _ -> Instr.Sraiw
        in
        Instr.Op_imm32
          (op, dst prng, any_reg prng, Int64.of_int (Prng.int_below prng 32))
  | _ ->
      if Prng.bool prng then
        Instr.Lui
          ( dst prng,
            Int64.of_int (Prng.int_below prng 0x100000 - 0x80000) |> fun v ->
            Int64.shift_left v 12 )
      else Instr.Auipc (dst prng, Int64.shift_left (Int64.of_int (Prng.int_below prng 16)) 12)

(* In-window control target: index into the n+1 slots (the +1 lands
   on the terminal back-jump); 1 in 12 is nudged to a 2-byte offset,
   a misaligned target that must trap on the taken path. *)
let gen_target_delta prng i n =
  let ti = Prng.int_below prng (n + 1) in
  let delta = 4 * (ti - i) in
  if Prng.int_below prng 12 = 0 then delta + 2 else delta

let gen_mem prng ~wild =
  let width = Prng.choose prng widths in
  let size = Instr.width_bytes width in
  let base = if Prng.bool prng then 10 else 11 in
  let off =
    if Prng.int_below prng 10 = 0 then Prng.int_below prng 0x7F8 (* any alignment *)
    else Prng.int_below prng (0x800 / size) * size
  in
  let rs1 = if wild then any_reg prng else base in
  if Prng.bool prng then
    Instr.Load
      {
        width;
        unsigned = Prng.bool prng && width <> Instr.D;
        rd = dst prng;
        rs1;
        imm = Int64.of_int off;
      }
  else Instr.Store { width; rs2 = any_reg prng; rs1; imm = Int64.of_int off }

(* Store into the program's own code window: W-width, word-aligned,
   payload mostly one of the pinned valid encodings so the splice is
   live code. *)
let gen_selfmod prng =
  let rs1 = if Prng.bool prng then 12 else 13 in
  let rs2 =
    match Prng.int_below prng 4 with
    | 0 -> any_reg prng
    | 1 -> 15
    | _ -> 14
  in
  Instr.Store
    {
      width = Instr.W;
      rs2;
      rs1;
      imm = Int64.of_int (4 * Prng.int_below prng 128);
    }

let gen_csr prng =
  if Prng.int_below prng 3 = 0 then
    (* read: rd must land somewhere observable *)
    Instr.Csr
      {
        op = Instr.Csrrs;
        rd = dst prng;
        src = Instr.Imm 0;
        csr = Prng.choose prng csr_read_targets;
      }
  else
    let op =
      match Prng.int_below prng 3 with
      | 0 -> Instr.Csrrw
      | 1 -> Instr.Csrrs
      | _ -> Instr.Csrrc
    in
    let src =
      if Prng.bool prng then Instr.Reg (any_reg prng)
      else Instr.Imm (Prng.int_below prng 32)
    in
    Instr.Csr
      { op; rd = dst prng; src; csr = Prng.choose prng csr_write_targets }

let gen_instr prng i n =
  match Prng.int_below prng 100 with
  | k when k < 34 -> gen_alu prng
  | k when k < 46 ->
      Instr.Branch
        ( Prng.choose prng branch_ops,
          any_reg prng,
          any_reg prng,
          Int64.of_int (gen_target_delta prng i n) )
  | k when k < 50 ->
      let rd = if Prng.int_below prng 3 = 0 then dst prng else 0 in
      Instr.Jal (rd, Int64.of_int (gen_target_delta prng i n))
  | k when k < 54 ->
      let rs1 = if Prng.int_below prng 6 = 0 then any_reg prng
                else if Prng.bool prng then 12 else 13 in
      let off = 4 * Prng.int_below prng 128 in
      let off = if Prng.int_below prng 12 = 0 then off + 2 else off in
      let rd = if Prng.int_below prng 3 = 0 then dst prng else 0 in
      Instr.Jalr (rd, rs1, Int64.of_int off)
  | k when k < 70 -> gen_mem prng ~wild:false
  | k when k < 74 -> gen_selfmod prng
  | k when k < 78 ->
      let op = Prng.choose prng amo_ops in
      Instr.Amo
        {
          op;
          wide = Prng.bool prng;
          aq = false;
          rl = false;
          rd = dst prng;
          rs1 = (if Prng.bool prng then 10 else 11);
          rs2 = (if op = Instr.Lr then 0 else any_reg prng);
        }
  | k when k < 86 -> gen_csr prng
  | k when k < 88 -> if Prng.bool prng then Instr.Ecall else Instr.Ebreak
  | k when k < 92 -> (
      match Prng.int_below prng 3 with
      | 0 -> Instr.Fence
      | 1 -> Instr.Fence_i
      | _ -> Instr.Sfence_vma (0, 0))
  | k when k < 94 -> Instr.Mret
  | _ -> gen_mem prng ~wild:true

let gen_case prng =
  let n = 16 + Prng.int_below prng 180 in
  let body = List.init n (fun i -> gen_instr prng i n) in
  (* terminal back-jump: fall-through re-enters the program, so every
     case is an eternal loop bounded only by its step budget *)
  let all = body @ [ Instr.Jal (0, Int64.of_int (-4 * n)) ] in
  let words = Array.of_list (List.map Encode.encode all) in
  let nsegs = 4 + Prng.int_below prng 9 in
  let segs = Array.init nsegs (fun _ -> 1 + Prng.int_below prng 63) in
  { Blockdiff.seed = Prng.next prng; words; segs }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let nop = Encode.encode (Instr.Op_imm (Instr.Addi, 0, 0, 0L))

(* Segment truncation (everything after the diverging segment never
   ran) followed by one NOP-substitution pass over the code; each
   candidate is re-run on a fresh pair, so the result is a standalone
   reproduction. *)
let shrink (case : Blockdiff.case) (d : Blockdiff.divergence) =
  let best = ref case and bestd = ref d in
  (if d.Blockdiff.seg_index >= 0
      && d.Blockdiff.seg_index + 1 < Array.length case.Blockdiff.segs
   then
     let cand =
       {
         case with
         Blockdiff.segs =
           Array.sub case.Blockdiff.segs 0 (d.Blockdiff.seg_index + 1);
       }
     in
     match Blockdiff.run_case cand with
     | Some d' ->
         best := cand;
         bestd := d'
     | None -> ());
  let nwords = Array.length !best.Blockdiff.words in
  for i = 0 to nwords - 1 do
    if !best.Blockdiff.words.(i) <> nop then begin
      let words = Array.copy !best.Blockdiff.words in
      words.(i) <- nop;
      let cand = { !best with Blockdiff.words } in
      match Blockdiff.run_case cand with
      | Some d' ->
          best := cand;
          bestd := d'
      | None -> ()
    end
  done;
  (!best, !bestd)

(* ------------------------------------------------------------------ *)
(* Checked-in regression vectors                                       *)
(* ------------------------------------------------------------------ *)

(* A spread of generated cases under fixed seeds, plus two hand-built
   shapes generation only rarely concentrates: a dense self-modifying
   loop and a pure spin loop sliced by 1-step segments.  Emitted to
   test/vectors/ as block-*.jsonl; dune runtest replays each one and
   requires the engine to match the interpreter exactly. *)
let builtin =
  let generated =
    List.map
      (fun seed ->
        let prng = Miralis.Config.derive seed "blockfuzz/gen" in
        (Printf.sprintf "block-gen-%Lx" seed, gen_case prng))
      [ 0xB10C1L; 0xB10C2L; 0xB10C3L; 0xB10C4L; 0xB10C5L; 0xB10C6L ]
  in
  let enc = Encode.encode in
  let selfmod =
    (* overwrite the loop body with addi x5,x5,1 (payload in x14),
       then run through the splice; loops via the terminal jump *)
    let body =
      [
        Instr.Store { width = Instr.W; rs2 = 14; rs1 = 12; imm = 16L };
        Instr.Op_imm (Instr.Addi, 6, 6, 1L);
        Instr.Op (Instr.Xor, 7, 6, 5);
        Instr.Op_imm (Instr.Addi, 8, 8, -1L);
        Instr.Ebreak (* slot 4 = byte 16: spliced to addi x5,x5,1 *);
        Instr.Op (Instr.Add, 9, 9, 5);
      ]
    in
    let n = List.length body in
    {
      Blockdiff.seed = 0x5E1FL;
      words =
        Array.of_list
          (List.map enc (body @ [ Instr.Jal (0, Int64.of_int (-4 * n)) ]));
      segs = [| 3; 1; 7; 32; 64; 17 |];
    }
  in
  let spin =
    (* the resident self-chain loop, observed at every 1-step budget
       phase and then in bulk *)
    let body =
      [
        Instr.Op_imm (Instr.Addi, 5, 5, 3L);
        Instr.Op (Instr.Xor, 5, 5, 6);
        Instr.Op_imm (Instr.Addi, 6, 6, -1L);
        Instr.Branch (Instr.Bne, 6, 0, -12L);
        Instr.Op_imm (Instr.Addi, 7, 7, 1L);
      ]
    in
    let n = List.length body in
    {
      Blockdiff.seed = 0x59117L;
      words =
        Array.of_list
          (List.map enc (body @ [ Instr.Jal (0, Int64.of_int (-4 * n)) ]));
      segs = [| 1; 1; 1; 1; 1; 1; 1; 2; 3; 5; 48; 64; 63; 33 |];
    }
  in
  generated @ [ ("block-selfmod", selfmod); ("block-spin", spin) ]

(* ------------------------------------------------------------------ *)
(* JSONL codec and the family                                          *)
(* ------------------------------------------------------------------ *)

(* A {"blockdiff":1,"seed":...} header, then one line per code word
   and one per segment budget, in order. *)
let to_jsonl (c : Blockdiff.case) =
  let lines fmt a = List.map (Printf.sprintf fmt) (Array.to_list a) in
  String.concat ""
    (Printf.sprintf "{\"blockdiff\":1,\"seed\":\"0x%Lx\"}\n" c.Blockdiff.seed
    :: lines "{\"op\":\"w\",\"bits\":\"0x%x\"}\n" c.Blockdiff.words
    @ lines "{\"op\":\"s\",\"steps\":%d}\n" c.Blockdiff.segs)

type item = Word of int | Seg of int

let ( let* ) = Result.bind

let line_of_fields fields =
  let* op = Event.field fields "op" in
  match op with
  | "w" ->
      let* bits = Event.i64_field fields "bits" in
      if bits < 0L || bits > 0xFFFFFFFFL then
        Error (Printf.sprintf "code word %#Lx is not 32 bits" bits)
      else Ok (Word (Int64.to_int bits))
  | "s" ->
      let* steps = Event.int_field fields "steps" in
      if steps < 1 then Error "segment budgets must be positive"
      else Ok (Seg steps)
  | other -> Error (Printf.sprintf "unknown blockdiff op %S" other)

let of_lines header lines =
  let* seed = Event.i64_field header "seed" in
  let words =
    Array.of_list (List.filter_map (function Word w -> Some w | _ -> None) lines)
  in
  let segs =
    Array.of_list (List.filter_map (function Seg s -> Some s | _ -> None) lines)
  in
  let n = Array.length words in
  if n = 0 || n > Blockdiff.max_words then
    Error
      (Printf.sprintf "code must be 1..%d words, got %d" Blockdiff.max_words n)
  else if segs = [||] then Error "no segment budgets"
  else Ok { Blockdiff.seed; words; segs }

let priv_class = function Priv.U -> 0 | Priv.S -> 1 | Priv.M -> 2

module Family = struct
  type case = Blockdiff.case
  type exec = unit
  type line = item

  let name = "blocks"
  let header = "blockdiff"

  (* no per-campaign state: [Blockdiff.run_case] builds a fresh
     machine pair per case *)
  let create ?inject_bug ~seed:_ () =
    Difftest.no_bugs ~family:name inject_bug ()

  let generator () ~seed =
    let prng = Miralis.Config.derive seed "blockfuzz/gen" in
    fun _ -> gen_case prng

  (* edge: (pc region x privilege x mcause x wfi) of each block-side
     segment summary *)
  let check () ~edge case =
    let on_segment _ (v : Blockdiff.seg_view) =
      edge
        (((((v.Blockdiff.region * 3) + priv_class v.Blockdiff.priv) * 32)
          + (Int64.to_int v.Blockdiff.cause land 31))
         * 2
        + Bool.to_int v.Blockdiff.wfi)
    in
    Blockdiff.run_case ~on_segment case
    |> Option.map (fun (d : Blockdiff.divergence) ->
           Printf.sprintf "segment %d, field %s: blocks %s, interp %s"
             d.Blockdiff.seg_index d.Blockdiff.field d.Blockdiff.blocks_state
             d.Blockdiff.interp_state)

  let shrink () case =
    match Blockdiff.run_case case with
    | None -> case
    | Some d -> fst (shrink case d)

  let pp = Blockdiff.pp_case
  let builtin = builtin
  let to_jsonl = to_jsonl
  let parse_line = line_of_fields
  let of_lines = of_lines
end

include Difftest.Make (Family)
