(* Edge-coverage map driving mutation scheduling.

   An edge is (instruction class x outcome class x trap cause): what
   kind of privileged operation ran, how it resolved (fall-through,
   world switch, injected trap, interrupt preemption, ...) and which
   cause was involved. The map is a fixed array of hit counts;
   AFL-style count bucketing (1, 2, 3, 4-7, 8-15, ...) decides when a
   hotter path still counts as new coverage. *)

let size = 16384

type t = { counts : int array }

let create () = { counts = Array.make size 0 }

(* Stable edge index: no hashing beyond a mix so that determinism is
   trivial and collisions are structural, not seed-dependent. *)
let edge ~cls ~tag ~cause = (((cls * 8) + tag) * 32 + cause) mod size

let bucket n =
  if n = 0 then 0
  else if n = 1 then 1
  else if n = 2 then 2
  else if n = 3 then 3
  else if n < 8 then 4
  else if n < 16 then 5
  else if n < 32 then 6
  else if n < 128 then 7
  else 8

(* Record a hit; true iff the edge is new or crossed a count bucket —
   the "interesting input" signal. *)
let add t idx =
  let i = ((idx mod size) + size) mod size in
  let before = t.counts.(i) in
  t.counts.(i) <- before + 1;
  bucket (before + 1) <> bucket before

let edges t =
  Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 t.counts

let total t = Array.fold_left ( + ) 0 t.counts
let equal a b = a.counts = b.counts

(* ------------------------------------------------------------------ *)
(* Serialization: sparse "index:count" pairs, one per line after a
   header. Round-trips exactly (tested), so coverage state can be
   persisted next to the corpus.                                       *)
(* ------------------------------------------------------------------ *)

let to_string t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "coverage %d\n" size);
  Array.iteri
    (fun i c -> if c > 0 then Buffer.add_string buf (Printf.sprintf "%d:%d\n" i c))
    t.counts;
  Buffer.contents buf

let of_string s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty coverage dump"
  | header :: rest ->
      if header <> Printf.sprintf "coverage %d" size then
        Error (Printf.sprintf "bad coverage header %S" header)
      else begin
        let t = create () in
        let rec go = function
          | [] -> Ok t
          | line :: rest -> begin
              match String.index_opt line ':' with
              | None -> Error (Printf.sprintf "bad coverage line %S" line)
              | Some k -> begin
                  match
                    ( int_of_string_opt (String.sub line 0 k),
                      int_of_string_opt
                        (String.sub line (k + 1) (String.length line - k - 1)) )
                  with
                  | Some i, Some c when i >= 0 && i < size && c > 0 ->
                      t.counts.(i) <- c;
                      go rest
                  | _ -> Error (Printf.sprintf "bad coverage line %S" line)
                end
            end
        in
        go rest
      end
