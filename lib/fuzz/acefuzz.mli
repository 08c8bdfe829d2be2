(** The ace family: the ACE confidential-VM policy against a pure
    model of its steal/return contract.

    Drives the policy hooks white-box — staged COVH ecalls (tsm_info /
    promote / run_vcpu / destroy), voluntary teecall exits and machine
    interrupts on a fresh two-hart monitor per case — and compares
    every observable with the model's prediction: the SBI return pair,
    the resumed pc and privilege, per-CVM PMP confidentiality from
    every hart, the medeleg swap, scrub-on-destroy and the steal/return
    counters. Vectors carry the [ace] header ([ace-*.jsonl]). *)

type op =
  | Tsm_info of { hart : int }
  | Promote of { hart : int; base : int64; size : int64; entry : int64 }
  | Run of { hart : int; id : int }
  | Teecall of { hart : int; value : int64 }
      (** a COVH call issued from inside a running CVM: a voluntary
          exit carrying [value] (on a non-stolen hart it degenerates
          to tsm_info) *)
  | Destroy of { hart : int; id : int }
  | Interrupt of { hart : int; delta : int64 }
      (** a machine interrupt; if the hart runs a CVM the vcpu is
          suspended at entry+[delta] *)

include Difftest.S with type case = op list
(** The builtins are lifecycle, overlap rejection, malformed promotes,
    interrupt/resume, cross-hart steal and destroy-while-running. *)
