let count_file path =
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      let n = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then incr n
         done
       with End_of_file -> ());
      close_in ic;
      !n

let project_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let count_files root paths =
  List.fold_left
    (fun acc p -> acc + count_file (Filename.concat root p))
    0 paths

let ml_and_mli base = [ base ^ ".ml"; base ^ ".mli" ]

let table1 () =
  match project_root () with
  | None -> [ ("(source tree not found)", 0) ]
  | Some root ->
      let core base = ml_and_mli ("lib/core/" ^ base) in
      let rows =
        [
          ("Emulator", count_files root (core "emulator"));
          ( "Hardware interface",
            count_files root (core "world" @ core "vpmp" @ core "vhart") );
          ("MMIO devices", count_files root (core "vclint" @ core "vplic"));
          ("Fast path offload", count_files root (core "offload"));
          ( "Other",
            count_files root
              (core "monitor" @ core "config" @ core "cost"
              @ core "vfm_stats" @ core "policy") );
        ]
      in
      rows @ [ ("Total", List.fold_left (fun a (_, n) -> a + n) 0 rows) ]

let dir_loc root dir =
  match Sys.readdir (Filename.concat root dir) with
  | exception Sys_error _ -> 0
  | files ->
      Array.fold_left
        (fun acc f ->
          if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
          then acc + count_file (Filename.concat (Filename.concat root dir) f)
          else acc)
        0 files

(* One row per lib/ subdirectory, found on disk so a new library can
   never be left out, then the top-level trees. *)
let repo_inventory () =
  match project_root () with
  | None -> []
  | Some root ->
      let libs =
        match Sys.readdir (Filename.concat root "lib") with
        | exception Sys_error _ -> []
        | dirs ->
            Array.to_list dirs
            |> List.filter (fun d ->
                   Sys.is_directory (Filename.concat root ("lib/" ^ d)))
            |> List.sort String.compare
            |> List.map (fun d -> "lib/" ^ d)
      in
      List.map
        (fun dir -> (dir, dir_loc root dir))
        (libs @ [ "bin"; "bench"; "examples"; "test" ])
