module Diff = Mir_verif.Diff
module Instr = Mir_rv.Instr
module Csr_addr = Mir_rv.Csr_addr

(* The differential executor: one input = one evolving stream through
   the reference machine and the VFM emulator, compared step by step
   with the lib/trace digest oracle (see Mir_verif.Diff stream API). *)

type t = { diff : Diff.t; config : Miralis.Config.t }

let create ?inject_bug ?seed () =
  let diff = Diff.create ?inject_bug ?seed () in
  { diff; config = Diff.config diff }

let config t = t.config

(* ------------------------------------------------------------------ *)
(* Coverage-edge classification                                        *)
(* ------------------------------------------------------------------ *)

(* Instruction class: which privileged operation kind ran, with CSR
   traffic subdivided by the architectural group it touches. *)
let csr_group csr =
  if Csr_addr.is_pmpcfg csr then 0
  else if Csr_addr.is_pmpaddr csr then 1
  else if csr = Csr_addr.mstatus || csr = Csr_addr.sstatus then 2
  else if
    csr = Csr_addr.mie || csr = Csr_addr.mip || csr = Csr_addr.sie
    || csr = Csr_addr.sip
  then 3
  else if csr = Csr_addr.mideleg || csr = Csr_addr.medeleg then 4
  else if
    csr = Csr_addr.mtvec || csr = Csr_addr.stvec || csr = Csr_addr.mepc
    || csr = Csr_addr.sepc || csr = Csr_addr.mcause || csr = Csr_addr.scause
    || csr = Csr_addr.mtval || csr = Csr_addr.stval
  then 5
  else if csr = Csr_addr.satp then 6
  else if
    csr = Csr_addr.mcycle || csr = Csr_addr.minstret || csr = Csr_addr.cycle
    || csr = Csr_addr.time || csr = Csr_addr.instret
    || csr = Csr_addr.mcounteren || csr = Csr_addr.scounteren
    || csr = Csr_addr.mcountinhibit
  then 7
  else 8

let op_class = function
  | Input.Op_instr (Instr.Csr { op; csr; _ }) ->
      let opi =
        match op with Instr.Csrrw -> 0 | Instr.Csrrs -> 1 | Instr.Csrrc -> 2
      in
      (csr_group csr * 3) + opi (* 0..26 *)
  | Input.Op_instr Instr.Mret -> 27
  | Input.Op_instr Instr.Sret -> 28
  | Input.Op_instr Instr.Wfi -> 29
  | Input.Op_instr Instr.Ecall -> 30
  | Input.Op_instr Instr.Ebreak -> 31
  | Input.Op_instr (Instr.Sfence_vma _) -> 32
  | Input.Op_instr _ -> 33 (* unprivileged: rejected by the emulator *)
  | Input.Op_lines _ -> 34

let edge_of op step =
  Coverage.edge ~cls:(op_class op)
    ~tag:(Diff.outcome_tag step.Diff.outcome)
    ~cause:(Diff.outcome_cause step.Diff.outcome)

(* ------------------------------------------------------------------ *)
(* Running one input                                                   *)
(* ------------------------------------------------------------------ *)

let state_prng (input : Input.t) =
  Miralis.Config.derive input.Input.seed "fuzz:state"

let run ?(edge = ignore) t (input : Input.t) =
  let sample = Diff.gen_sample t.diff (state_prng input) in
  Diff.stream_begin t.diff sample;
  let rec go i = function
    | [] -> None
    | op :: rest -> (
        let step =
          match op with
          | Input.Op_instr instr -> Diff.stream_step t.diff instr
          | Input.Op_lines { mtip; msip; meip } ->
              Diff.set_lines t.diff ~mtip ~msip ~meip;
              { Diff.verdict = Diff.Agree; outcome = Diff.O_next }
        in
        edge (edge_of op step);
        match step.Diff.verdict with
        | Diff.Agree | Diff.Skip -> go (i + 1) rest
        | Diff.Disagree msg -> Some (i, msg))
  in
  go 0 input.Input.ops

let diverges t input = run t input <> None
