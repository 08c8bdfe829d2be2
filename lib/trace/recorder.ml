type t = { ring : Event.t Ring.t }

let default_capacity = 1 lsl 20

let create ?(capacity = default_capacity) () = { ring = Ring.create ~capacity }
let push t e = Ring.push t.ring e
let count t = Ring.length t.ring
let dropped t = Ring.dropped t.ring
let total t = Ring.total t.ring
let events t = Ring.to_list t.ring
let clear t = Ring.clear t.ring

let to_jsonl t =
  let buf = Buffer.create 4096 in
  Ring.iter
    (fun e ->
      Buffer.add_string buf (Event.to_json e);
      Buffer.add_char buf '\n')
    t.ring;
  Buffer.contents buf

let save t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl t))

let of_jsonl s =
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go acc (lineno + 1) rest
        else begin
          match Event.of_json line with
          | Ok e -> go (e :: acc) (lineno + 1) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
        end
  in
  go [] 1 (String.split_on_char '\n' s)

let load ~path = Result.bind (Event.read_file path) of_jsonl
