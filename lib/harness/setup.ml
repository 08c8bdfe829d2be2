module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Script = Mir_kernel.Script

type mode = Native | Virtualized | Virtualized_no_offload

let mode_name = function
  | Native -> "Native"
  | Virtualized -> "Miralis"
  | Virtualized_no_offload -> "Miralis no-offload"

type system = {
  platform : Mir_platform.Platform.t;
  mode : mode;
  machine : Mir_rv.Machine.t;
  miralis : Miralis.Monitor.t option;
}

let create ?policy ?policy_pmp_slots ?inject_bug
    ?(firmware = Mir_firmware.Minisbi.image)
    (platform : Mir_platform.Platform.t) mode =
  if Option.is_some policy && mode = Native then
    invalid_arg "Setup.create: a policy needs Miralis; Native runs without it";
  let m = Machine.create platform.Mir_platform.Platform.machine in
  (* storage and network are part of every system build: ~13 us per
     512-byte sector at the default clocking, matching low-end eMMC *)
  ignore (Machine.attach_blockdev m ~capacity_sectors:4096 ~latency_ticks:200L);
  ignore (Machine.attach_nic m);
  let nharts = platform.Mir_platform.Platform.machine.Machine.nharts in
  let kernel_entry = Mir_kernel.Interp_kernel.entry in
  let fw_image, _ = firmware ~nharts ~kernel_entry in
  Machine.load_program m Mir_firmware.Layout.fw_base fw_image;
  let kimage, _ = Mir_kernel.Interp_kernel.image () in
  Machine.load_program m kernel_entry kimage;
  match mode with
  | Native ->
      Array.iter
        (fun h ->
          Hart.reset h ~pc:Mir_firmware.Layout.fw_base;
          Hart.set h 10 (Int64.of_int h.Hart.id);
          Hart.set h 11 0L)
        m.Machine.harts;
      { platform; mode; machine = m; miralis = None }
  | Virtualized | Virtualized_no_offload ->
      let config =
        Miralis.Config.make
          ~offload:(mode = Virtualized)
          ?policy_pmp_slots
          ~allowed_custom_csrs:platform.Mir_platform.Platform.custom_csrs
          ~cost:platform.Mir_platform.Platform.cost ?inject_bug
          ~machine:platform.Mir_platform.Platform.machine ()
      in
      let mir = Miralis.Monitor.create ?policy config m in
      Miralis.Monitor.boot mir ~fw_entry:Mir_firmware.Layout.fw_base;
      { platform; mode; machine = m; miralis = Some mir }

let run_scripts ?(max_instrs = 500_000_000L) system scripts =
  let nharts = Array.length system.machine.Machine.harts in
  for h = 0 to nharts - 1 do
    let script =
      match List.nth_opt scripts h with
      | Some s -> s
      | None -> [ Script.Halt ]
    in
    Script.write system.machine ~hart:h script
  done;
  Machine.run ~max_instrs system.machine

(* ------------------------------------------------------------------ *)
(* Tracing: record, replay, checkpoint (lib/trace)                     *)
(* ------------------------------------------------------------------ *)

let attach_tracer system ~sink =
  let tr = Mir_trace.Tracer.attach system.machine ~sink in
  (match system.miralis with
  | Some m -> m.Miralis.Monitor.tracer <- Some tr
  | None -> ());
  tr

let attach_recorder ?capacity system =
  let recorder = Mir_trace.Recorder.create ?capacity () in
  let tracer =
    attach_tracer system ~sink:(Mir_trace.Recorder.push recorder)
  in
  (recorder, tracer)

let attach_replay ?seed system ~events =
  (* Divergence reports carry the run's root PRNG seed so a failure is
     reproducible with a single --seed flag; default to the monitor's
     configured seed when the caller doesn't override it. *)
  let seed =
    match (seed, system.miralis) with
    | (Some _ as s), _ -> s
    | None, Some m -> Some m.Miralis.Monitor.config.Miralis.Config.seed
    | None, None -> None
  in
  let replay =
    Mir_trace.Replay.create ?seed ~machine:system.machine ~events ()
  in
  let tracer = attach_tracer system ~sink:(Mir_trace.Replay.feed replay) in
  (replay, tracer)

let checkpoint_manager ?events_seen system ~every =
  let extra_save =
    Option.map (fun m () -> Miralis.Monitor.save m) system.miralis
  in
  Mir_trace.Snapshot.manage ?extra_save ?events_seen ~every system.machine

let state_hash system = Mir_trace.Snapshot.hash system.machine

let hart0_cycles system = system.machine.Machine.harts.(0).Hart.cycles

let stats system =
  Option.map (fun m -> m.Miralis.Monitor.stats) system.miralis

let uart_output system = Mir_rv.Uart.output system.machine.Machine.uart

let seconds system =
  Mir_platform.Platform.seconds_of_cycles system.platform
    (Int64.of_int (hart0_cycles system))
