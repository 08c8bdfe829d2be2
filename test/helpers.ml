(* Shared test utilities. *)

module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Asm = Mir_asm.Asm

let check_i64 = Alcotest.(check int64)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Build a machine, assemble a program at the RAM base, reset hart 0
   there, and return the machine. *)
let machine_with ?(config = Machine.default_config) prog =
  let m = Machine.create config in
  let image, labels = Asm.assemble ~base:config.Machine.ram_base prog in
  Machine.load_program m config.Machine.ram_base image;
  Array.iter (fun h -> Hart.reset h ~pc:config.Machine.ram_base) m.Machine.harts;
  (m, labels)

(* Run until power-off (or bounded), returning hart 0. *)
let run_to_completion ?(max_instrs = 2_000_000L) m =
  Machine.run ~max_instrs m;
  m.Machine.harts.(0)

let qcheck_case ?(count = 500) name law gen =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen law)

(* Run [f] on a fresh directory under the system temp dir, then delete
   it and the files [f] left in it, so concurrent runs never share
   files. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* cwd is the test directory under `dune runtest`, the project root
   under a bare `dune exec` *)
let vectors_dir () =
  if Sys.file_exists "vectors" then "vectors" else "test/vectors"

(* The checked-in vectors of one differential-testing family (the files
   whose header key is the family's), decoded by its codec and replayed
   through the driver. *)
let replay_family_vectors (module D : Mir_fuzz.Difftest.S) =
  let module Event = Mir_trace.Event in
  let ok = function Ok x -> x | Error e -> Alcotest.fail e in
  let cases =
    ok (Event.jsonl_files (vectors_dir ()))
    |> List.filter_map (fun file ->
           let text = ok (Event.read_file file) in
           match ok (Event.split ~file text) with
           | _, key, _, _ when key <> D.header -> None
           | _ -> Some (Filename.basename file, ok (D.decode ~file text)))
  in
  let v = ok (D.replay ~seed:Miralis.Config.default_seed cases) in
  List.iter
    (fun (name, reason) -> Alcotest.failf "%s diverges: %s" name reason)
    v.Mir_fuzz.Difftest.failures;
  v
