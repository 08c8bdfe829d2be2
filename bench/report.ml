(* The one writer of the BENCH_<name>.json files: a JSON object with
   each top-level member on its own line as ["key": value], the shape
   scripts/ci.sh's line-oriented greps read. Values are rendered by the
   helpers below; [float digits] fixes a field's precision. *)

let int = string_of_int
let float digits x = Printf.sprintf "%.*f" digits x
let bool = string_of_bool
let str s = Printf.sprintf "%S" s
let list items = "[" ^ String.concat ", " items ^ "]"
let member (key, value) = Printf.sprintf "%S: %s" key value
let obj fields = "{" ^ String.concat ", " (List.map member fields) ^ "}"

let write name fields =
  let path = Printf.sprintf "BENCH_%s.json" name in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\n  %s\n}\n"
        (String.concat ",\n  " (List.map member fields)));
  print_endline ("  wrote " ^ path)
