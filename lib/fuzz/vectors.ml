module Instr = Mir_rv.Instr
module Csr_addr = Mir_rv.Csr_addr

(* Hand-designed conformance vectors: short privileged-ISA streams
   targeting the emulation corners the paper's verification work (and
   PR-1's bug classes) care about — PMP reconfiguration, trap
   delegation flips, MPP/MPIE shuffles across xRET, WFI vs interrupt
   lines, and out-of-range vPMP probes. Register-sourced CSR writes
   take their values from the vector's seeded initial state, so each
   vector is deterministic without needing value literals.

   `fuzz --emit-vectors` writes them to test/vectors/ as JSONL, and
   `dune runtest` plus scripts/ci.sh replay them as a regression
   suite. *)

let csrw ?(rd = 0) csr src = Input.Op_instr (Instr.Csr { op = Instr.Csrrw; rd; src; csr })
let csrs ?(rd = 0) csr src = Input.Op_instr (Instr.Csr { op = Instr.Csrrs; rd; src; csr })
let csrc ?(rd = 0) csr src = Input.Op_instr (Instr.Csr { op = Instr.Csrrc; rd; src; csr })
let reg r = Instr.Reg r
let imm i = Instr.Imm i
let mret = Input.Op_instr Instr.Mret
let sret = Input.Op_instr Instr.Sret
let wfi = Input.Op_instr Instr.Wfi
let ecall = Input.Op_instr Instr.Ecall
let ebreak = Input.Op_instr Instr.Ebreak
let sfence = Input.Op_instr (Instr.Sfence_vma (0, 0))
let lines ?(meip = false) ~mtip ~msip () = Input.Op_lines { mtip; msip; meip }

let v seed ops = { Input.seed; ops }

let builtin =
  [
    (* PMP: rewrite addr then cfg, read both back, fire an mret so the
       new filter governs the next fetch. *)
    ( "pmp-reconfig",
      v 0x1001L
        [
          csrw (Csr_addr.pmpaddr 0) (reg 10);
          csrw (Csr_addr.pmpaddr 1) (reg 11);
          csrw (Csr_addr.pmpcfg 0) (reg 12);
          csrs ~rd:5 (Csr_addr.pmpcfg 0) (imm 0);
          csrs ~rd:6 (Csr_addr.pmpaddr 0) (imm 0);
          mret;
        ] );
    (* PMP: TOR/NAPOT bit sculpting with immediates (A-field = bits
       3..4 of each cfg byte) and a locked-looking read-back. *)
    ( "pmp-cfg-bits",
      v 0x1002L
        [
          csrw (Csr_addr.pmpaddr 0) (imm 31);
          csrw (Csr_addr.pmpcfg 0) (imm 0x0F);
          csrc (Csr_addr.pmpcfg 0) (imm 0x08);
          csrs (Csr_addr.pmpcfg 0) (imm 0x18);
          csrs ~rd:7 (Csr_addr.pmpcfg 0) (imm 0);
        ] );
    (* vPMP overrun probes: the last virtual entries plus two past the
       end; both sides must agree on which writes stick. *)
    ( "pmp-out-of-range",
      v 0x1003L
        [
          csrw (Csr_addr.pmpaddr 6) (reg 10);
          csrw (Csr_addr.pmpaddr 7) (reg 11);
          csrw (Csr_addr.pmpaddr 8) (reg 12);
          csrs ~rd:5 (Csr_addr.pmpaddr 7) (imm 0);
          csrs ~rd:6 (Csr_addr.pmpaddr 8) (imm 0);
          csrw (Csr_addr.pmpcfg 2) (reg 28);
        ] );
    (* Delegation: flip medeleg/mideleg then take an ecall, so trap
       routing depends on the just-written delegation masks. *)
    ( "deleg-ecall",
      v 0x1004L
        [
          csrw Csr_addr.medeleg (reg 10);
          csrw Csr_addr.mideleg (reg 11);
          ecall;
          csrc Csr_addr.medeleg (imm 0x1F);
          ecall;
          ebreak;
        ] );
    (* xRET dance: sculpt MPP/MPIE/SPP via mstatus then mret/sret;
       catches PR-1's Mpp_not_legalized / Mret_skips_mpie classes. *)
    ( "mret-mpp-dance",
      v 0x1005L
        [
          csrw Csr_addr.mstatus (reg 10);
          mret;
          csrs ~rd:5 Csr_addr.mstatus (imm 0);
          csrw Csr_addr.mepc (reg 11);
          mret;
          csrw Csr_addr.sstatus (reg 12);
          sret;
        ] );
    (* WFI against moving interrupt lines: resume conditions must
       match on both sides, including the MIE-gated delivery. *)
    ( "wfi-lines",
      v 0x1006L
        [
          lines ~mtip:false ~msip:false ();
          wfi;
          csrw Csr_addr.mie (reg 10);
          lines ~mtip:true ~msip:false ();
          wfi;
          lines ~mtip:false ~msip:true ();
          csrs ~rd:5 Csr_addr.mip (imm 0);
          wfi;
        ] );
    (* Interrupt priority: both timer and software pending with MIE
       on — delivery order is architecturally fixed (MTI before MSI
       only by priority rules; Interrupt_priority_swapped flips it). *)
    ( "irq-priority",
      v 0x1007L
        [
          csrs Csr_addr.mie (imm 0x8);
          csrs Csr_addr.mie (reg 10);
          lines ~meip:true ~mtip:true ~msip:true ();
          csrs Csr_addr.mstatus (imm 0x8);
          csrs ~rd:5 Csr_addr.mip (imm 0);
          csrc Csr_addr.mie (imm 0x8);
          lines ~mtip:false ~msip:false ();
        ] );
    (* Translation state: satp writes plus sfence and an sret into the
       just-programmed address space. *)
    ( "satp-sfence",
      v 0x1008L
        [
          csrw Csr_addr.satp (reg 10);
          sfence;
          csrs ~rd:5 Csr_addr.satp (imm 0);
          csrw Csr_addr.sepc (reg 11);
          sret;
          csrw Csr_addr.satp (imm 0);
        ] );
    (* Read-only and counter CSRs: writes must trap identically,
       reads must expose the same virtualized values. *)
    ( "counters-ro",
      v 0x1009L
        [
          csrs ~rd:5 Csr_addr.mhartid (imm 0);
          csrw Csr_addr.mvendorid (reg 10);
          csrs ~rd:6 Csr_addr.mcycle (imm 0);
          csrw Csr_addr.mcycle (reg 11);
          csrw Csr_addr.mcountinhibit (imm 1);
          csrs ~rd:7 Csr_addr.minstret (imm 0);
        ] );
    (* Unimplemented CSR space: both sides must inject the same
       illegal-instruction trap (0x5c0 is an unallocated M-mode
       address; 0x105 is stvec, legal, as a control). *)
    ( "unimpl-csr",
      v 0x100AL
        [
          csrw 0x5C0 (reg 10);
          csrs ~rd:5 0x5C0 (imm 0);
          csrw Csr_addr.stvec (reg 11);
          csrs ~rd:6 Csr_addr.stvec (imm 0);
          ecall;
        ] );
  ]
