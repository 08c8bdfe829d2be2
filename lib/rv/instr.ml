type reg = int
type branch_op = Beq | Bne | Blt | Bge | Bltu | Bgeu
type width = B | H | W | D

type op =
  | Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And
  | Mul | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu

type op32 = Addw | Subw | Sllw | Srlw | Sraw | Mulw | Divw | Divuw | Remw | Remuw
type op_imm = Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli | Srai
type op_imm32 = Addiw | Slliw | Srliw | Sraiw
type csr_op = Csrrw | Csrrs | Csrrc

type amo_op = Lr | Sc | Swap | Amoadd | Amoxor | Amoand | Amoor
            | Amomin | Amomax | Amominu | Amomaxu

type t =
  | Lui of reg * int64
  | Auipc of reg * int64
  | Jal of reg * int64
  | Jalr of reg * reg * int64
  | Branch of branch_op * reg * reg * int64
  | Load of { width : width; unsigned : bool; rd : reg; rs1 : reg; imm : int64 }
  | Store of { width : width; rs2 : reg; rs1 : reg; imm : int64 }
  | Op_imm of op_imm * reg * reg * int64
  | Op_imm32 of op_imm32 * reg * reg * int64
  | Op of op * reg * reg * reg
  | Op32 of op32 * reg * reg * reg
  | Fence
  | Fence_i
  | Ecall
  | Ebreak
  | Csr of { op : csr_op; rd : reg; src : src; csr : int }
  | Mret
  | Sret
  | Wfi
  | Sfence_vma of reg * reg
  | Amo of {
      op : amo_op;
      wide : bool;
      aq : bool;
      rl : bool;
      rd : reg;
      rs1 : reg;
      rs2 : reg;
    }

and src = Reg of reg | Imm of int

let is_privileged = function
  | Csr _ | Mret | Sret | Wfi | Sfence_vma _ -> true
  | Lui _ | Auipc _ | Jal _ | Jalr _ | Branch _ | Load _ | Store _
  | Op_imm _ | Op_imm32 _ | Op _ | Op32 _ | Fence | Fence_i | Ecall | Ebreak
  | Amo _ ->
      false

let width_bytes = function B -> 1 | H -> 2 | W -> 4 | D -> 8

(* csrrs/csrrc with rs1 = x0 or a zero immediate only read the CSR. *)
let csr_writes op src =
  match (op, src) with
  | Csrrw, _ -> true
  | (Csrrs | Csrrc), (Reg 0 | Imm 0) -> false
  | (Csrrs | Csrrc), _ -> true

(* Block-engine classification (lib/rv/block.ml). A pure instruction
   touches only the register file and pc: it cannot trap, cannot
   access memory or CSRs, and fires no observation hook, so the block
   executor may batch its per-step bookkeeping. Fence is pure here
   because the interpreter executes it as a no-op. *)
let is_pure = function
  | Lui _ | Auipc _ | Op_imm _ | Op_imm32 _ | Op _ | Op32 _ | Fence -> true
  | Jal _ | Jalr _ | Branch _ | Load _ | Store _ | Fence_i | Ecall | Ebreak
  | Csr _ | Mret | Sret | Wfi | Sfence_vma _ | Amo _ ->
      false

(* A terminator ends a decoded block: control flow (the next pc is no
   longer sequential), anything privileged (it may change the
   translation/privilege context blocks are dispatched under), and the
   always-trapping pair. Loads/stores/AMOs do NOT terminate — stores
   into a cached page are caught by the executor's mid-block
   invalidation check. *)
let is_block_terminator = function
  | Jal _ | Jalr _ | Branch _ | Ecall | Ebreak | Fence_i -> true
  | i -> is_privileged i

let reg_names =
  [| "zero"; "ra"; "sp"; "gp"; "tp"; "t0"; "t1"; "t2"; "s0"; "s1";
     "a0"; "a1"; "a2"; "a3"; "a4"; "a5"; "a6"; "a7";
     "s2"; "s3"; "s4"; "s5"; "s6"; "s7"; "s8"; "s9"; "s10"; "s11";
     "t3"; "t4"; "t5"; "t6" |]

let reg_name r =
  if r >= 0 && r < 32 then reg_names.(r) else Printf.sprintf "x%d" r

let branch_name = function
  | Beq -> "beq" | Bne -> "bne" | Blt -> "blt"
  | Bge -> "bge" | Bltu -> "bltu" | Bgeu -> "bgeu"

let op_name = function
  | Add -> "add" | Sub -> "sub" | Sll -> "sll" | Slt -> "slt"
  | Sltu -> "sltu" | Xor -> "xor" | Srl -> "srl" | Sra -> "sra"
  | Or -> "or" | And -> "and" | Mul -> "mul" | Mulh -> "mulh"
  | Mulhsu -> "mulhsu" | Mulhu -> "mulhu" | Div -> "div" | Divu -> "divu"
  | Rem -> "rem" | Remu -> "remu"

let op32_name = function
  | Addw -> "addw" | Subw -> "subw" | Sllw -> "sllw" | Srlw -> "srlw"
  | Sraw -> "sraw" | Mulw -> "mulw" | Divw -> "divw" | Divuw -> "divuw"
  | Remw -> "remw" | Remuw -> "remuw"

let op_imm_name = function
  | Addi -> "addi" | Slti -> "slti" | Sltiu -> "sltiu" | Xori -> "xori"
  | Ori -> "ori" | Andi -> "andi" | Slli -> "slli" | Srli -> "srli"
  | Srai -> "srai"

let op_imm32_name = function
  | Addiw -> "addiw" | Slliw -> "slliw" | Srliw -> "srliw" | Sraiw -> "sraiw"

let csr_op_name = function
  | Csrrw -> "csrrw" | Csrrs -> "csrrs" | Csrrc -> "csrrc"

let amo_op_name = function
  | Lr -> "lr" | Sc -> "sc" | Swap -> "amoswap" | Amoadd -> "amoadd"
  | Amoxor -> "amoxor" | Amoand -> "amoand" | Amoor -> "amoor"
  | Amomin -> "amomin" | Amomax -> "amomax" | Amominu -> "amominu"
  | Amomaxu -> "amomaxu"

let load_name width unsigned =
  match (width, unsigned) with
  | B, false -> "lb" | B, true -> "lbu"
  | H, false -> "lh" | H, true -> "lhu"
  | W, false -> "lw" | W, true -> "lwu"
  | D, _ -> "ld"

let store_name = function B -> "sb" | H -> "sh" | W -> "sw" | D -> "sd"

let to_string t =
  let r = reg_name in
  match t with
  | Lui (rd, imm) -> Printf.sprintf "lui %s, 0x%Lx" (r rd)
      (Int64.logand (Int64.shift_right_logical imm 12) 0xFFFFFL)
  | Auipc (rd, imm) -> Printf.sprintf "auipc %s, 0x%Lx" (r rd)
      (Int64.logand (Int64.shift_right_logical imm 12) 0xFFFFFL)
  | Jal (rd, off) -> Printf.sprintf "jal %s, %Ld" (r rd) off
  | Jalr (rd, rs1, off) -> Printf.sprintf "jalr %s, %Ld(%s)" (r rd) off (r rs1)
  | Branch (op, rs1, rs2, off) ->
      Printf.sprintf "%s %s, %s, %Ld" (branch_name op) (r rs1) (r rs2) off
  | Load { width; unsigned; rd; rs1; imm } ->
      Printf.sprintf "%s %s, %Ld(%s)" (load_name width unsigned) (r rd) imm (r rs1)
  | Store { width; rs2; rs1; imm } ->
      Printf.sprintf "%s %s, %Ld(%s)" (store_name width) (r rs2) imm (r rs1)
  | Op_imm (op, rd, rs1, imm) ->
      Printf.sprintf "%s %s, %s, %Ld" (op_imm_name op) (r rd) (r rs1) imm
  | Op_imm32 (op, rd, rs1, imm) ->
      Printf.sprintf "%s %s, %s, %Ld" (op_imm32_name op) (r rd) (r rs1) imm
  | Op (op, rd, rs1, rs2) ->
      Printf.sprintf "%s %s, %s, %s" (op_name op) (r rd) (r rs1) (r rs2)
  | Op32 (op, rd, rs1, rs2) ->
      Printf.sprintf "%s %s, %s, %s" (op32_name op) (r rd) (r rs1) (r rs2)
  | Fence -> "fence"
  | Fence_i -> "fence.i"
  | Ecall -> "ecall"
  | Ebreak -> "ebreak"
  | Csr { op; rd; src; csr } -> begin
      match src with
      | Reg rs1 ->
          Printf.sprintf "%s %s, 0x%x, %s" (csr_op_name op) (r rd) csr (r rs1)
      | Imm z ->
          Printf.sprintf "%si %s, 0x%x, %d" (csr_op_name op) (r rd) csr z
    end
  | Mret -> "mret"
  | Sret -> "sret"
  | Wfi -> "wfi"
  | Sfence_vma (rs1, rs2) -> Printf.sprintf "sfence.vma %s, %s" (r rs1) (r rs2)
  | Amo { op; wide; aq; rl; rd; rs1; rs2 } ->
      Printf.sprintf "%s.%s%s%s %s, %s, (%s)" (amo_op_name op)
        (if wide then "d" else "w")
        (if aq then ".aq" else "")
        (if rl then ".rl" else "")
        (r rd) (r rs2) (r rs1)

let pp fmt t = Format.pp_print_string fmt (to_string t)
