(** Counters the evaluation reports: trap rates, world switches and
    fast-path hits (e.g. the paper's 0.479 world switches/second
    across microbenchmarks, or the 5500 traps/second during boot). *)

type t = {
  mutable traps_from_os : int;
  mutable traps_from_fw : int;
  mutable world_switches : int;  (** OS→firmware transitions *)
  mutable emulated_instrs : int;
  mutable vtraps : int;  (** traps injected into the virtual firmware *)
  mutable offload_time_read : int;
  mutable offload_set_timer : int;
  mutable offload_ipi : int;
  mutable offload_rfence : int;
  mutable offload_misaligned : int;
  mutable vclint_accesses : int;
  mutable pmp_remote_reinstalls : int;
      (** sibling-hart PMP reinstalls (policy entry changes that every
          hart must observe, e.g. enclave create/destroy) *)
  mutable ace_steals : int;
      (** harts stolen for a confidential-VM vcpu (ACE heavy context
          switch, non-confidential → confidential) *)
  mutable ace_returns : int;
      (** harts returned from a confidential-VM vcpu (confidential →
          non-confidential) *)
}

val create : unit -> t

val save_state : t -> t
(** Snapshot (checkpoint support). *)

val load_state : t -> t -> unit
(** [load_state t s] restores [t] from the snapshot [s]. *)

val offload_hits : t -> int
val reset : t -> unit
val pp : Format.formatter -> t -> unit
