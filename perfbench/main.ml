(* Host-time benchmark of the simulator, its virtual firmware monitor,
   the schedule explorer and the differential fuzzers.

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a report, then as its last line one JSON object with the
   keys correct, attempted, failed and metrics. --trace 0 gives the
   end-to-end metrics of untraced timed ops; --trace 1 gives the
   per-layer metrics of a traced run and writes its spans to
   perfbench/out/. A failed output check reads correct: false; bad
   usage exits 2. *)

open Perfbench

let usage () =
  Printf.eprintf "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  if List.exists (fun (k, _) -> not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ])) opts
  then usage ();
  let w = match Workloads.find (get "workload") with Some w -> w | None -> usage () in
  let seed = match Int64.of_string_opt (get "seed") with Some s -> s | None -> usage () in
  let seconds =
    match float_of_string_opt (get "seconds") with
    | Some s when s > 0. -> s
    | _ -> usage ()
  in
  let r =
    match get "trace" with
    | "0" -> Bench.untraced w ~sizing:Bench.full ~seed ~seconds
    | "1" ->
        let dir = Filename.concat "perfbench" "out" in
        let spans_path =
          if Sys.file_exists "perfbench" then begin
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            Some (Filename.concat dir (Printf.sprintf "%s-%Ld.spans.jsonl" w.Workloads.name seed))
          end
          else None
        in
        Bench.traced ?spans_path w ~sizing:Bench.full ~seed ~seconds
    | _ -> usage ()
  in
  List.iter print_endline r.Bench.lines;
  print_endline (Bench.json r)
