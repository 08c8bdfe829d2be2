(** System assembly: platform + firmware + kernel (+ Miralis).

    Builds the three configurations the evaluation compares
    throughout: Native (firmware in real M-mode — the baseline),
    Virtualized (firmware in vM-mode under Miralis with fast-path
    offload) and Virtualized_no_offload (the ablation). The same
    unmodified firmware image is used in all three. *)

type mode = Native | Virtualized | Virtualized_no_offload

val mode_name : mode -> string

type system = {
  platform : Mir_platform.Platform.t;
  mode : mode;
  machine : Mir_rv.Machine.t;
  miralis : Miralis.Monitor.t option;
}

val create :
  ?policy:Miralis.Policy.t ->
  ?policy_pmp_slots:int ->
  ?inject_bug:Miralis.Config.bug ->
  ?firmware:(nharts:int -> kernel_entry:int64 -> bytes * (string * int64) list) ->
  Mir_platform.Platform.t ->
  mode ->
  system
(** Build the machine, load MiniSBI (or the given firmware image
    builder) and the interpreter kernel, and boot. [policy_pmp_slots]
    is the physical PMP entries the policy reserves
    ({!Miralis.Config.make}). Raises [Invalid_argument] for a [policy]
    in [Native] mode, which has no monitor to run it. *)

val run_scripts :
  ?max_instrs:int64 -> system -> Mir_kernel.Script.op list list -> unit
(** Write one script per hart (harts beyond the list get [Halt]) and
    run to power-off or the instruction budget. *)

(** {2 Tracing (record / replay / checkpoint)} *)

val attach_tracer : system -> sink:(Mir_trace.Event.t -> unit) -> Mir_trace.Tracer.t
(** Install trace hooks on the machine and, when present, the monitor.
    Attach after {!create} so boot is outside the recorded window (a
    replayed system attaches at the same point). *)

val attach_recorder :
  ?capacity:int -> system -> Mir_trace.Recorder.t * Mir_trace.Tracer.t

val attach_replay :
  ?seed:int64 -> system -> events:Mir_trace.Event.t list ->
  Mir_trace.Replay.t * Mir_trace.Tracer.t
(** Divergence reports name the run's root PRNG seed (the monitor's
    configured seed unless overridden), so a failure is one-command
    reproducible. *)

val checkpoint_manager :
  ?events_seen:(unit -> int) -> system -> every:int64 ->
  Mir_trace.Snapshot.manager
(** Periodic checkpoints; monitor state is captured via
    [Miralis.Monitor.save] when the system runs under the VFM. *)

val state_hash : system -> int64
(** Digest of the full architectural state ({!Mir_trace.Snapshot.hash}). *)

val hart0_cycles : system -> int
val stats : system -> Miralis.Vfm_stats.t option
val uart_output : system -> string

val seconds : system -> float
(** Simulated wall-clock time on hart 0. *)
