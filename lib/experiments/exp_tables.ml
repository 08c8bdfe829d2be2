module Tablefmt = Mir_util.Tablefmt
module Setup = Mir_harness.Setup
module Platform = Mir_platform.Platform
module Machine = Mir_rv.Machine
module Script = Mir_kernel.Script
module Models = Mir_workloads.Models
module Engine = Mir_workloads.Engine
open Exp_common

let table1 () =
  section "Table 1: Miralis lines of code decomposition";
  paper_note
    "emulator 2.7k, hardware interface 1.1k, MMIO devices 430, fast path \
     190, other 1.8k, total 6.2k";
  Tablefmt.print ~headers:[ "Subsystem"; "LoC" ]
    (List.map
       (fun (name, loc) -> [ name; string_of_int loc ])
       (Mir_harness.Loc.table1 ()));
  print_endline "\nFull repository inventory:";
  Tablefmt.print ~headers:[ "Library"; "LoC" ]
    (List.map
       (fun (name, loc) -> [ name; string_of_int loc ])
       (Mir_harness.Loc.repo_inventory ()))

let table2 ?(quick = false) () =
  section "Table 2: verification times";
  paper_note
    "mret 68s, sret 56s, CSR read 99s, CSR write 9min, wfi 28s, decoder \
     45s, virtual interrupt 94s, end-to-end 118min (Kani symbolic \
     execution; ours proves five rows symbolically and samples the other \
     four, so absolute times differ)";
  Tablefmt.print
    ~headers:
      [ "Verification task"; "Method"; "Cases or paths"; "Mismatches"; "Time" ]
    (List.map
       (fun (r : Mir_verif.Tasks.report) ->
         [
           r.name;
           Mir_verif.Tasks.method_label r;
           string_of_int r.cases;
           string_of_int r.mismatches;
           Printf.sprintf "%.2fs" r.seconds;
         ])
       (Mir_verif.Tasks.all ~quick ()))

let table3 () =
  section "Table 3: evaluation platforms";
  Tablefmt.print
    ~headers:
      [ "Platform"; "Vendor"; "Core"; "Harts"; "Freq"; "RAM"; "Kernel" ]
    (List.map
       (fun (p : Platform.t) ->
         [
           p.Platform.name;
           p.Platform.vendor;
           p.Platform.core;
           string_of_int p.Platform.nharts;
           Printf.sprintf "%.1f GHz" (float_of_int p.Platform.freq_mhz /. 1000.);
           Printf.sprintf "%d GB" p.Platform.ram_gb;
           p.Platform.kernel_version;
         ])
       Platform.all)

(* Table 4: cost of one emulated privileged instruction and of a full
   world-switch round trip, measured like the paper does (minimal
   firmware, minimal kernel). *)
let measure_emulation platform =
  let sys =
    Setup.create ~firmware:Mir_firmware.Microfw.csrw_loop platform
      Setup.Virtualized
  in
  Machine.run ~max_instrs:4_000L sys.Setup.machine;
  let stats = Option.get (Setup.stats sys) in
  (* stats are machine-global; the loop runs on every hart *)
  let nharts = Array.length sys.Setup.machine.Machine.harts in
  let emulated = stats.Miralis.Vfm_stats.emulated_instrs / nharts in
  if emulated = 0 then 0.
  else
    float_of_int (Setup.hart0_cycles sys) /. float_of_int emulated

let measure_world_switch platform =
  let sys =
    Setup.create ~firmware:Mir_firmware.Microfw.null_handler platform
      Setup.Virtualized
  in
  let n = 400 in
  (* warm up with one call, then measure the steady state *)
  let script =
    [ Script.Putchar '\000'; Script.Cycle_stamp ]
    @ List.concat (List.init n (fun _ -> [ Script.Putchar '\000' ]))
    @ [ Script.Cycle_stamp; Script.End ]
  in
  Setup.run_scripts ~max_instrs:20_000_000L sys [ script ];
  let stamps = Script.stamps sys.Setup.machine ~hart:0 ~count:2 in
  let per_call =
    Int64.to_float (Int64.sub stamps.(1) stamps.(0)) /. float_of_int n
  in
  (* subtract the interpreter-loop overhead (~26 instructions/op) *)
  per_call -. 26.

let table4 () =
  section "Table 4: cost of Miralis operations (cycles)";
  paper_note
    "instruction emulation 483 (VF2) / 271 (P550); world switch round \
     trip 2704 (VF2) / 4098 (P550)";
  Tablefmt.print
    ~headers:[ "Platform"; "Instruction emulation"; "World switch" ]
    (List.map
       (fun p ->
         [
           p.Platform.name;
           f1 (measure_emulation p);
           f1 (measure_world_switch p);
         ])
       [ Platform.visionfive2; Platform.premier_p550 ])

(* Table 5: cost of a timer read and an IPI on the VisionFive 2 in the
   three configurations. *)
let measure_loop platform mode spec =
  let r =
    Engine.run platform mode ~ops:spec.Models.ops spec.Models.scripts
  in
  (* per-op cycles net of the interpreter loop (~26 instructions) *)
  let cycles =
    (Int64.to_float r.Engine.cycles /. float_of_int spec.Models.ops) -. 26.
  in
  Platform.ns_of_cycles platform (Int64.of_float cycles)

let table5 ?(n = 2000) () =
  section "Table 5: cost of timer read and IPI (VisionFive 2)";
  paper_note
    "read time: native 288ns, Miralis 208ns, no-offload 7.26us; IPI: \
     native 3.96us, Miralis 3.65us, no-offload 39.8us";
  let p = Platform.visionfive2 in
  Tablefmt.print ~headers:[ "Configuration"; "read time"; "IPI" ]
    (List.map
       (fun mode ->
         [
           mode_name mode;
           ns (measure_loop p mode (Models.rdtime_loop ~n));
           ns (measure_loop p mode (Models.ipi_loop ~n:(n / 4)));
         ])
       modes)
