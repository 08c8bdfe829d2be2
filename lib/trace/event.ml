module Cause = Mir_rv.Cause
module Priv = Mir_rv.Priv

type kind =
  | Trap of { cause : Cause.t; from_priv : Priv.t; to_m : bool; tval : int64 }
  | Vtrap of { cause : Cause.t; tval : int64 }
  | Csr_write of { addr : int; value : int64 }
  | Mmio of { write : bool; addr : int64; size : int; value : int64 }
  | World_switch of { to_fw : bool }
  | Pmp_reinstall
  | Sbi_call of { ext : int64; fid : int64; offloaded : bool }

type t = {
  seq : int;
  hart : int;
  instrs : int64;
  pc : int64;
  digest : int64;
  kind : kind;
}

let kind_name = function
  | Trap _ -> "trap"
  | Vtrap _ -> "vtrap"
  | Csr_write _ -> "csrw"
  | Mmio _ -> "mmio"
  | World_switch _ -> "world"
  | Pmp_reinstall -> "pmp"
  | Sbi_call _ -> "sbi"

(* Everything in an event is immutable scalar data, so structural
   equality is the right notion. The sequence number is excluded:
   replay from a mid-run checkpoint restarts a fresh tracer whose
   counter begins at zero. *)
let equal a b =
  a.hart = b.hart && a.instrs = b.instrs && a.pc = b.pc
  && a.digest = b.digest && a.kind = b.kind

(* ------------------------------------------------------------------ *)
(* JSON-lines serialization                                            *)
(* ------------------------------------------------------------------ *)

(* The format is a flat JSON object per line. int64 values are emitted
   as quoted hex strings ("0x..."), which round-trips the full
   unsigned range without touching JSON number limits and keeps the
   log grep-able. All keys and string values are plain ASCII
   identifiers, so no escaping machinery is needed. *)

let hx v = Printf.sprintf "\"0x%Lx\"" v
let js_int = string_of_int
let js_bool b = if b then "true" else "false"
let js_str s = "\"" ^ s ^ "\""

let kind_fields k =
  ("k", js_str (kind_name k))
  ::
  (match k with
  | Trap { cause; from_priv; to_m; tval } ->
      [
        ("cause", hx (Cause.to_xcause cause));
        ("from", js_int (Priv.to_int from_priv));
        ("tom", js_bool to_m);
        ("tval", hx tval);
      ]
  | Vtrap { cause; tval } ->
      [ ("cause", hx (Cause.to_xcause cause)); ("tval", hx tval) ]
  | Csr_write { addr; value } ->
      [ ("csr", js_int addr); ("value", hx value) ]
  | Mmio { write; addr; size; value } ->
      [
        ("w", js_bool write);
        ("addr", hx addr);
        ("size", js_int size);
        ("value", hx value);
      ]
  | World_switch { to_fw } -> [ ("tofw", js_bool to_fw) ]
  | Pmp_reinstall -> []
  | Sbi_call { ext; fid; offloaded } ->
      [ ("ext", hx ext); ("fid", hx fid); ("off", js_bool offloaded) ])

let to_json t =
  let fields =
    [
      ("seq", js_int t.seq);
      ("hart", js_int t.hart);
      ("instrs", hx t.instrs);
      ("pc", hx t.pc);
      ("digest", hx t.digest);
    ]
    @ kind_fields t.kind
  in
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> "\"" ^ k ^ "\":" ^ v) fields)
  ^ "}"

(* Minimal parser for the flat objects above: ["key":value,...] with
   string, bool and integer values. Not a general JSON parser — just
   the inverse of [to_json]. *)
let parse_fields line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = Error (Printf.sprintf "%s at %d in %S" msg !pos line) in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do incr pos done
  in
  let expect c =
    skip_ws ();
    if !pos < n && line.[!pos] = c then begin incr pos; true end
    else false
  in
  let parse_string () =
    (* caller consumed the opening quote *)
    let start = !pos in
    while !pos < n && line.[!pos] <> '"' do incr pos done;
    if !pos >= n then None
    else begin
      let s = String.sub line start (!pos - start) in
      incr pos;
      Some s
    end
  in
  let parse_scalar () =
    skip_ws ();
    if !pos < n && line.[!pos] = '"' then begin
      incr pos;
      parse_string ()
    end
    else begin
      let start = !pos in
      while
        !pos < n
        &&
        match line.[!pos] with
        | 'a' .. 'z' | '0' .. '9' | '-' -> true
        | _ -> false
      do
        incr pos
      done;
      if !pos = start then None else Some (String.sub line start (!pos - start))
    end
  in
  if not (expect '{') then fail "expected '{'"
  else begin
    let fields = ref [] in
    let ok = ref true and err = ref None in
    let stop = ref (expect '}') in
    while (not !stop) && !ok do
      (match
         skip_ws ();
         if !pos < n && line.[!pos] = '"' then begin
           incr pos;
           parse_string ()
         end
         else None
       with
      | None ->
          ok := false;
          err := Some "expected key"
      | Some key ->
          if not (expect ':') then begin
            ok := false;
            err := Some "expected ':'"
          end
          else begin
            match parse_scalar () with
            | None ->
                ok := false;
                err := Some "expected value"
            | Some v ->
                fields := (key, v) :: !fields;
                if expect ',' then ()
                else if expect '}' then stop := true
                else begin
                  ok := false;
                  err := Some "expected ',' or '}'"
                end
          end);
      ()
    done;
    if !ok then Ok (List.rev !fields)
    else fail (Option.value !err ~default:"parse error")
  end

let ( let* ) = Result.bind

let field fields key =
  match List.assoc_opt key fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" key)

let int_field fields key =
  let* v = field fields key in
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S: bad int %S" key v)

(* Int64.of_string accepts the full unsigned hex range. *)
let i64_field fields key =
  let* v = field fields key in
  match Int64.of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S: bad int64 %S" key v)

let bool_field fields key =
  let* v = field fields key in
  match v with
  | "true" -> Ok true
  | "false" -> Ok false
  | _ -> Error (Printf.sprintf "field %S: bad bool %S" key v)

(* ------------------------------------------------------------------ *)
(* JSONL artifact files (traces, schedules, fuzz vectors)              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error msg -> Error msg

let split ~file text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  match lines with
  | [] -> Error (Printf.sprintf "%s:1: empty file" file)
  | (n, header) :: body -> (
      match parse_fields header with
      | Ok ((key, _) :: _ as fields) -> Ok (n, key, fields, body)
      | Ok [] -> Error (Printf.sprintf "%s:%d: header has no key" file n)
      | Error e -> Error (Printf.sprintf "%s:%d: %s" file n e))

let jsonl_files path =
  if not (Sys.file_exists path) then
    Error (path ^ ": no such file or directory")
  else if not (Sys.is_directory path) then Ok [ path ]
  else
    match
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      |> List.sort String.compare
    with
    | [] -> Error (path ^ ": no *.jsonl files")
    | files -> Ok (List.map (Filename.concat path) files)

let cause_field fields key =
  let* v = i64_field fields key in
  match Cause.of_xcause v with
  | Some c -> Ok c
  | None -> Error (Printf.sprintf "field %S: bad cause %Lx" key v)

let of_json line =
  let* fields = parse_fields line in
  let* seq = int_field fields "seq" in
  let* hart = int_field fields "hart" in
  let* instrs = i64_field fields "instrs" in
  let* pc = i64_field fields "pc" in
  let* digest = i64_field fields "digest" in
  let* k = field fields "k" in
  let* kind =
    match k with
    | "trap" ->
        let* cause = cause_field fields "cause" in
        let* from = int_field fields "from" in
        let* to_m = bool_field fields "tom" in
        let* tval = i64_field fields "tval" in
        let* from_priv =
          match Priv.of_int from with
          | Some p -> Ok p
          | None -> Error "bad privilege level"
        in
        Ok (Trap { cause; from_priv; to_m; tval })
    | "vtrap" ->
        let* cause = cause_field fields "cause" in
        let* tval = i64_field fields "tval" in
        Ok (Vtrap { cause; tval })
    | "csrw" ->
        let* addr = int_field fields "csr" in
        let* value = i64_field fields "value" in
        Ok (Csr_write { addr; value })
    | "mmio" ->
        let* write = bool_field fields "w" in
        let* addr = i64_field fields "addr" in
        let* size = int_field fields "size" in
        let* value = i64_field fields "value" in
        Ok (Mmio { write; addr; size; value })
    | "world" ->
        let* to_fw = bool_field fields "tofw" in
        Ok (World_switch { to_fw })
    | "pmp" -> Ok Pmp_reinstall
    | "sbi" ->
        let* ext = i64_field fields "ext" in
        let* fid = i64_field fields "fid" in
        let* offloaded = bool_field fields "off" in
        Ok (Sbi_call { ext; fid; offloaded })
    | other -> Error (Printf.sprintf "unknown event kind %S" other)
  in
  Ok { seq; hart; instrs; pc; digest; kind }

let pp_kind fmt = function
  | Trap { cause; from_priv; to_m; tval } ->
      Format.fprintf fmt "trap %s from=%s -> %s tval=%Lx"
        (Cause.to_string cause) (Priv.to_string from_priv)
        (if to_m then "M" else "S")
        tval
  | Vtrap { cause; tval } ->
      Format.fprintf fmt "vtrap %s tval=%Lx" (Cause.to_string cause) tval
  | Csr_write { addr; value } ->
      Format.fprintf fmt "csrw %03x <- %Lx" addr value
  | Mmio { write; addr; size; value } ->
      Format.fprintf fmt "mmio %s [%Lx]%d %Lx"
        (if write then "store" else "load")
        addr size value
  | World_switch { to_fw } ->
      Format.fprintf fmt "world -> %s" (if to_fw then "firmware" else "OS")
  | Pmp_reinstall -> Format.fprintf fmt "pmp reinstall"
  | Sbi_call { ext; fid; offloaded } ->
      Format.fprintf fmt "sbi ext=%Lx fid=%Lx%s" ext fid
        (if offloaded then " (offloaded)" else "")

let pp fmt t =
  Format.fprintf fmt "#%d hart%d i=%Ld pc=%Lx %a" t.seq t.hart t.instrs t.pc
    pp_kind t.kind
