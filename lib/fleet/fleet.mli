(** Domain-parallel machine fleet: simulate the datacenter.

    Runs a fleet of independent simulated machines — each a complete
    single-hart system under its own Miralis monitor — across OCaml 5
    domains via a domain pool ({!Pool}), fed by the seeded load
    generator ({!Load}) that replays the paper's per-workload
    trap-rate mix as simulated client requests.

    Determinism contract: every machine's seed, profile and request
    stream are pure functions of (fleet seed, machine id), no two
    machines share any mutable simulator state, and all aggregation
    folds per-machine results in machine-id order. Fleet results
    (digests, counters, latency percentiles) are therefore
    bit-identical regardless of domain count or claiming order; only
    [wall_seconds] varies. *)

type spec = {
  machines : int;
  domains : int;
  workload : string;  (** a {!Load} profile name, or ["mix"] *)
  seed : int64;
  duration_ms : float;  (** simulated load window per machine *)
  max_instrs : int64;  (** per-machine safety budget *)
  record_machine : int option;
      (** record this machine's trace during the fleet run *)
  block_engine : bool;
      (** execute each machine through the decoded basic-block engine
          (the default). Digests, counters and recorded traces are
          bit-identical either way — the engine is step-exact against
          the interpreter — so this knob only trades speed for an
          independent execution path. *)
}

val default_spec : spec
(** 64 machines, 1 domain, ["mix"], seed ["Fleet"], 1 ms, block
    engine on. *)

val platform : Mir_platform.Platform.t
(** The fleet guest: single-hart VisionFive-2-class machine, 8 MiB RAM. *)

type machine_result = {
  id : int;
  mseed : int64;  (** splitmix-derived from (fleet seed, id) *)
  profile : string;
  requests : int;
  completed : bool;
  digest : int64;  (** {!Mir_trace.Snapshot.hash} of the final state *)
  instrs : int64;
  sim_seconds : float;
  traps : int;
  world_switches : int;
  offload_hits : int;
  latencies : float array;  (** per-request simulated cycles *)
  log : string;  (** buffered progress lines, drained by the coordinator *)
  events : Mir_trace.Event.t list;  (** non-empty only when recorded *)
}

val plan : spec -> int -> int64 * Load.stream
(** The pure per-machine plan (derived seed, request stream) — exposed
    so tests can cross-check independence from domain count. *)

val run_one : spec -> int -> machine_result
(** Build and run machine [id] to completion on the calling domain. *)

type result = {
  spec : spec;
  results : machine_result array;  (** indexed by machine id *)
  wall_seconds : float;
}

val run : spec -> result
(** Run the whole fleet on [spec.domains] domains. *)

type aggregate = {
  machines : int;
  requests : int;
  traps : int;
  world_switches : int;
  offload_hits : int;
  instrs : int64;
  all_completed : bool;
  sim_trap_rate : float;
      (** fleet-wide consolidated traps per simulated second *)
  traps_per_wall_sec : float;  (** host-side aggregate throughput *)
  p50_cycles : float;
  p99_cycles : float;
  p999_cycles : float;  (** per-request latency percentiles, simulated cycles *)
  fleet_digest : int64;
}

val aggregate : result -> aggregate
(** Fold per-machine results in machine-id order; every field except
    [traps_per_wall_sec] is domain-count invariant. *)

val drain_logs : result -> string
(** All per-machine buffered output, concatenated in machine-id order. *)

val replay_machine :
  spec -> id:int -> events:Mir_trace.Event.t list -> Mir_trace.Replay.outcome
(** Rebuild machine [id] from the spec and re-execute it serially
    while verifying every event against a log recorded during a fleet
    run (at any domain count). *)
