type t = {
  mutable traps_from_os : int;
  mutable traps_from_fw : int;
  mutable world_switches : int;
  mutable emulated_instrs : int;
  mutable vtraps : int;
  mutable offload_time_read : int;
  mutable offload_set_timer : int;
  mutable offload_ipi : int;
  mutable offload_rfence : int;
  mutable offload_misaligned : int;
  mutable vclint_accesses : int;
  (* sibling-hart PMP reinstalls performed by reinstall_pmp_all when a
     policy changes entries that every hart must observe (enclave
     create/destroy) *)
  mutable pmp_remote_reinstalls : int;
  (* ACE heavy context switches: a hart stolen for / returned from a
     confidential VM vcpu (Policy_ace via World.charge_ace_steal and
     charge_ace_return) *)
  mutable ace_steals : int;
  mutable ace_returns : int;
}

let create () =
  {
    traps_from_os = 0;
    traps_from_fw = 0;
    world_switches = 0;
    emulated_instrs = 0;
    vtraps = 0;
    offload_time_read = 0;
    offload_set_timer = 0;
    offload_ipi = 0;
    offload_rfence = 0;
    offload_misaligned = 0;
    vclint_accesses = 0;
    pmp_remote_reinstalls = 0;
    ace_steals = 0;
    ace_returns = 0;
  }

(* Checkpoint support: every field is a mutable int, so a shallow
   record copy is a complete snapshot. *)
let save_state t = { t with traps_from_os = t.traps_from_os }

let load_state t s =
  t.traps_from_os <- s.traps_from_os;
  t.traps_from_fw <- s.traps_from_fw;
  t.world_switches <- s.world_switches;
  t.emulated_instrs <- s.emulated_instrs;
  t.vtraps <- s.vtraps;
  t.offload_time_read <- s.offload_time_read;
  t.offload_set_timer <- s.offload_set_timer;
  t.offload_ipi <- s.offload_ipi;
  t.offload_rfence <- s.offload_rfence;
  t.offload_misaligned <- s.offload_misaligned;
  t.vclint_accesses <- s.vclint_accesses;
  t.pmp_remote_reinstalls <- s.pmp_remote_reinstalls;
  t.ace_steals <- s.ace_steals;
  t.ace_returns <- s.ace_returns

let offload_hits t =
  t.offload_time_read + t.offload_set_timer + t.offload_ipi + t.offload_rfence
  + t.offload_misaligned

let reset t =
  t.traps_from_os <- 0;
  t.traps_from_fw <- 0;
  t.world_switches <- 0;
  t.emulated_instrs <- 0;
  t.vtraps <- 0;
  t.offload_time_read <- 0;
  t.offload_set_timer <- 0;
  t.offload_ipi <- 0;
  t.offload_rfence <- 0;
  t.offload_misaligned <- 0;
  t.vclint_accesses <- 0;
  t.pmp_remote_reinstalls <- 0;
  t.ace_steals <- 0;
  t.ace_returns <- 0

let pp fmt t =
  Format.fprintf fmt
    "traps: os=%d fw=%d | world switches=%d | emulated=%d vtraps=%d | \
     offload: time=%d timer=%d ipi=%d rfence=%d misaligned=%d | vclint=%d | \
     pmp remote=%d | ace: steals=%d returns=%d"
    t.traps_from_os t.traps_from_fw t.world_switches t.emulated_instrs
    t.vtraps t.offload_time_read t.offload_set_timer t.offload_ipi
    t.offload_rfence t.offload_misaligned t.vclint_accesses
    t.pmp_remote_reinstalls t.ace_steals t.ace_returns
