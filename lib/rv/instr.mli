(** Instruction AST for the RV64IM + Zicsr + privileged subset.

    This is the abstract form shared by the decoder (hardware side),
    the encoder (assembler side) and the VFM's emulator. Immediates are
    stored sign-extended to 64 bits in their *byte* interpretation
    (branch/jump offsets are byte offsets, LUI/AUIPC immediates are
    already shifted into bits 31:12). *)

type reg = int
(** Register index, 0..31. x0 reads as zero and ignores writes. *)

(** Branch comparison. *)
type branch_op = Beq | Bne | Blt | Bge | Bltu | Bgeu

(** Memory access width in bytes. *)
type width = B | H | W | D

(** Integer register-register operations (RV64IM). *)
type op =
  | Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And
  | Mul | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu

(** 32-bit ("W") register-register operations. *)
type op32 = Addw | Subw | Sllw | Srlw | Sraw | Mulw | Divw | Divuw | Remw | Remuw

(** Register-immediate operations. Shift amounts live in the
    immediate. *)
type op_imm = Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli | Srai

(** 32-bit register-immediate operations. *)
type op_imm32 = Addiw | Slliw | Srliw | Sraiw

(** CSR access operation. *)
type csr_op = Csrrw | Csrrs | Csrrc

(** Atomic memory operations (the A extension). [Lr]/[Sc] are the
    load-reserved/store-conditional pair; the rest are fetch-and-op. *)
type amo_op = Lr | Sc | Swap | Amoadd | Amoxor | Amoand | Amoor
            | Amomin | Amomax | Amominu | Amomaxu

type t =
  | Lui of reg * int64
  | Auipc of reg * int64
  | Jal of reg * int64
  | Jalr of reg * reg * int64  (** rd, rs1, offset *)
  | Branch of branch_op * reg * reg * int64  (** rs1, rs2, offset *)
  | Load of { width : width; unsigned : bool; rd : reg; rs1 : reg; imm : int64 }
  | Store of { width : width; rs2 : reg; rs1 : reg; imm : int64 }
  | Op_imm of op_imm * reg * reg * int64  (** op, rd, rs1, imm *)
  | Op_imm32 of op_imm32 * reg * reg * int64
  | Op of op * reg * reg * reg  (** op, rd, rs1, rs2 *)
  | Op32 of op32 * reg * reg * reg
  | Fence
  | Fence_i
  | Ecall
  | Ebreak
  | Csr of { op : csr_op; rd : reg; src : src; csr : int }
  | Mret
  | Sret
  | Wfi
  | Sfence_vma of reg * reg  (** rs1 (vaddr), rs2 (asid) *)
  | Amo of {
      op : amo_op;
      wide : bool;  (** true = 64-bit (.d), false = 32-bit (.w) *)
      aq : bool;
      rl : bool;
      rd : reg;
      rs1 : reg;
      rs2 : reg;
    }

(** Source operand of a CSR instruction: a register or a 5-bit
    zero-extended immediate (the [csrrwi] forms). *)
and src = Reg of reg | Imm of int

val width_bytes : width -> int
(** The access size in bytes: 1, 2, 4 or 8. *)

val csr_writes : csr_op -> src -> bool
(** Whether a CSR instruction writes its CSR: [csrrw] always,
    [csrrs]/[csrrc] unless the source is x0 or a zero immediate. A
    write to a read-only CSR is an illegal instruction. *)

val is_privileged : t -> bool
(** True for the instructions a virtual firmware monitor must emulate:
    CSR accesses, [mret], [sret], [wfi], [sfence.vma]. This is the set
    the paper's Table 2 verification tasks cover. *)

val is_pure : t -> bool
(** True for register-only instructions (ALU forms, [lui]/[auipc],
    plain [fence]): no memory, no CSRs, no traps, no hooks. The block
    engine batches the per-step bookkeeping of pure runs. *)

val is_block_terminator : t -> bool
(** True for instructions that end a decoded basic block: control
    flow, every privileged instruction, [ecall]/[ebreak], and
    [fence.i]. *)

val reg_name : reg -> string
(** ABI register name ("zero", "ra", "sp", ...). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
