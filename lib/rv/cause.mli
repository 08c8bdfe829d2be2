(** Trap causes: synchronous exception codes and interrupt codes.

    Encodings follow the RISC-V privileged specification v1.12. The
    value stored in [mcause]/[scause] is the code with bit 63 set for
    interrupts. *)

(** Synchronous exceptions. *)
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

(** Interrupts (the standard local interrupts). *)
type intr =
  | Supervisor_software
  | Machine_software
  | Supervisor_timer
  | Machine_timer
  | Supervisor_external
  | Machine_external

type t = Exception of exc | Interrupt of intr

val exc_code : exc -> int
val intr_code : intr -> int

val exc_of_code : int -> exc option
val intr_of_code : int -> intr option

val priority : intr list
(** The standard interrupt priority, highest first: MEI, MSI, MTI,
    SEI, SSI, STI. A pending interrupt's mip bit is its code. *)

val to_xcause : t -> int64
(** The value written to [mcause]/[scause]. *)

val of_xcause : int64 -> t option
(** Inverse of {!to_xcause} for standard codes. *)

val tvec_target : int64 -> t -> int64
(** The handler pc of a trap through an mtvec/stvec value: the base,
    offset by 4 x cause for an interrupt in vectored mode. *)

val exc_to_string : exc -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

exception Trap of exc * int64
(** [Trap (exc, tval)] is raised by the executor when an instruction
    faults; the machine converts it into an architectural trap. [tval]
    is the value for [mtval]/[stval]. *)
