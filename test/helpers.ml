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

(* cwd is the test directory under `dune runtest`, the project root
   under a bare `dune exec` *)
let vectors_dir () =
  if Sys.file_exists "vectors" then "vectors" else "test/vectors"

(* The checked-in vectors of one differential-testing family (the files
   whose header key is the family's), decoded by its codec and replayed
   through the driver. *)
let replay_family_vectors (module D : Mir_fuzz.Difftest.S) =
  let dir = vectors_dir () in
  let cases =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> List.sort String.compare
    |> List.filter_map (fun f ->
           let file = Filename.concat dir f in
           let text = In_channel.with_open_bin file In_channel.input_all in
           match Mir_fuzz.Difftest.split ~file text with
           | Error e -> Alcotest.fail e
           | Ok (_, key, _, _) when key <> D.header -> None
           | Ok _ -> (
               match D.decode ~file text with
               | Ok c -> Some (f, c)
               | Error e -> Alcotest.fail e))
  in
  match D.replay ~seed:Miralis.Config.default_seed cases with
  | Error e -> Alcotest.fail e
  | Ok v ->
      List.iter
        (fun (name, reason) -> Alcotest.failf "%s diverges: %s" name reason)
        v.Mir_fuzz.Difftest.failures;
      v
