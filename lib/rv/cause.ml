type exc =
  | Instr_misaligned
  | Instr_access_fault
  | Illegal_instr
  | Breakpoint
  | Load_misaligned
  | Load_access_fault
  | Store_misaligned
  | Store_access_fault
  | Ecall_from_u
  | Ecall_from_s
  | Ecall_from_m
  | Instr_page_fault
  | Load_page_fault
  | Store_page_fault

type intr =
  | Supervisor_software
  | Machine_software
  | Supervisor_timer
  | Machine_timer
  | Supervisor_external
  | Machine_external

type t = Exception of exc | Interrupt of intr

let exc_code = function
  | Instr_misaligned -> 0
  | Instr_access_fault -> 1
  | Illegal_instr -> 2
  | Breakpoint -> 3
  | Load_misaligned -> 4
  | Load_access_fault -> 5
  | Store_misaligned -> 6
  | Store_access_fault -> 7
  | Ecall_from_u -> 8
  | Ecall_from_s -> 9
  | Ecall_from_m -> 11
  | Instr_page_fault -> 12
  | Load_page_fault -> 13
  | Store_page_fault -> 15

let intr_code = function
  | Supervisor_software -> 1
  | Machine_software -> 3
  | Supervisor_timer -> 5
  | Machine_timer -> 7
  | Supervisor_external -> 9
  | Machine_external -> 11

let exc_of_code = function
  | 0 -> Some Instr_misaligned
  | 1 -> Some Instr_access_fault
  | 2 -> Some Illegal_instr
  | 3 -> Some Breakpoint
  | 4 -> Some Load_misaligned
  | 5 -> Some Load_access_fault
  | 6 -> Some Store_misaligned
  | 7 -> Some Store_access_fault
  | 8 -> Some Ecall_from_u
  | 9 -> Some Ecall_from_s
  | 11 -> Some Ecall_from_m
  | 12 -> Some Instr_page_fault
  | 13 -> Some Load_page_fault
  | 15 -> Some Store_page_fault
  | _ -> None

let intr_of_code = function
  | 1 -> Some Supervisor_software
  | 3 -> Some Machine_software
  | 5 -> Some Supervisor_timer
  | 7 -> Some Machine_timer
  | 9 -> Some Supervisor_external
  | 11 -> Some Machine_external
  | _ -> None

(* Standard priority: MEI, MSI, MTI, SEI, SSI, STI. *)
let priority =
  [
    Machine_external;
    Machine_software;
    Machine_timer;
    Supervisor_external;
    Supervisor_software;
    Supervisor_timer;
  ]

let interrupt_bit = Int64.shift_left 1L 63

let to_xcause = function
  | Exception e -> Int64.of_int (exc_code e)
  | Interrupt i -> Int64.logor interrupt_bit (Int64.of_int (intr_code i))

let of_xcause v =
  if Int64.logand v interrupt_bit <> 0L then
    match intr_of_code (Int64.to_int (Int64.logand v 0xFFL)) with
    | Some i -> Some (Interrupt i)
    | None -> None
  else
    match exc_of_code (Int64.to_int (Int64.logand v 0xFFL)) with
    | Some e -> Some (Exception e)
    | None -> None

(* The handler address of a trap through [tvec] (mtvec/stvec): the
   base with the MODE bits cleared, plus 4 x cause for an interrupt
   when MODE is 1 (vectored). *)
let tvec_target tvec cause =
  let base = Int64.logand tvec (Int64.lognot 3L) in
  match cause with
  | Interrupt i when Int64.logand tvec 3L = 1L ->
      Int64.add base (Int64.of_int (4 * intr_code i))
  | _ -> base

let exc_to_string = function
  | Instr_misaligned -> "instruction address misaligned"
  | Instr_access_fault -> "instruction access fault"
  | Illegal_instr -> "illegal instruction"
  | Breakpoint -> "breakpoint"
  | Load_misaligned -> "load address misaligned"
  | Load_access_fault -> "load access fault"
  | Store_misaligned -> "store/AMO address misaligned"
  | Store_access_fault -> "store/AMO access fault"
  | Ecall_from_u -> "ecall from U-mode"
  | Ecall_from_s -> "ecall from S-mode"
  | Ecall_from_m -> "ecall from M-mode"
  | Instr_page_fault -> "instruction page fault"
  | Load_page_fault -> "load page fault"
  | Store_page_fault -> "store/AMO page fault"

let intr_to_string = function
  | Supervisor_software -> "supervisor software interrupt"
  | Machine_software -> "machine software interrupt"
  | Supervisor_timer -> "supervisor timer interrupt"
  | Machine_timer -> "machine timer interrupt"
  | Supervisor_external -> "supervisor external interrupt"
  | Machine_external -> "machine external interrupt"

let to_string = function
  | Exception e -> exc_to_string e
  | Interrupt i -> intr_to_string i

let pp fmt t = Format.pp_print_string fmt (to_string t)

exception Trap of exc * int64
