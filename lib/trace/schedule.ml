(* Replayable schedule artifacts for the interleaving explorer
   (lib/explore).

   A schedule is the run-length encoding of a pick sequence: the list
   of (step, hart) switch points, "from global step [step] onward,
   hart [hart] runs". Replaying the switches against the same scenario
   and seed reproduces the exact interleaving, so a failing schedule
   is a deterministic repro the same way a PR 2 vector is.

   Serialized as JSONL in the house style (test/vectors/,
   fuzz corpora): a meta line naming the scenario, the injected bug,
   the seed and the violated oracle, then one line per switch. *)

type t = {
  scenario : string;
  bug : string option; (* injected race bug, by CLI name *)
  seed : int64;
  nharts : int;
  steps : int; (* step budget that reproduces the violation *)
  oracle : string; (* the oracle the schedule violates ("" = none) *)
  switches : (int * int) list; (* (global step, hart), ascending *)
}

let preemption_points t = max 0 (List.length t.switches - 1)

let hx v = Printf.sprintf "\"0x%Lx\"" v
let js_int = string_of_int
let js_str s = "\"" ^ s ^ "\""

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ k ^ "\":" ^ v) fields)
  ^ "}"

let meta_line t =
  obj
    [
      ("v", js_int 1);
      ("scenario", js_str t.scenario);
      ("bug", js_str (Option.value t.bug ~default:"none"));
      ("seed", hx t.seed);
      ("nharts", js_int t.nharts);
      ("steps", js_int t.steps);
      ("oracle", js_str t.oracle);
    ]

let switch_line (at, hart) = obj [ ("at", js_int at); ("hart", js_int hart) ]

let save t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (meta_line t);
      output_char oc '\n';
      List.iter
        (fun sw ->
          output_string oc (switch_line sw);
          output_char oc '\n')
        t.switches)

let ( let* ) = Result.bind
let field = Event.field
let int_field = Event.int_field
let i64_field = Event.i64_field

let parse_meta fields =
  let* v = int_field fields "v" in
  if v <> 1 then Error (Printf.sprintf "unsupported schedule version %d" v)
  else
    let* scenario = field fields "scenario" in
    let* bug = field fields "bug" in
    let* seed = i64_field fields "seed" in
    let* nharts = int_field fields "nharts" in
    let* steps = int_field fields "steps" in
    let* oracle = field fields "oracle" in
    if nharts < 1 then Error (Printf.sprintf "bad nharts %d" nharts)
    else
      Ok
        {
          scenario;
          bug = (if bug = "none" then None else Some bug);
          seed;
          nharts;
          steps;
          oracle;
          switches = [];
        }

let parse_switch ~nharts line =
  let* fields = Event.parse_fields line in
  let* at = int_field fields "at" in
  let* hart = int_field fields "hart" in
  if hart < 0 || hart >= nharts then
    Error (Printf.sprintf "hart %d out of range (nharts %d)" hart nharts)
  else Ok (at, hart)

let load ~path =
  let at n = Result.map_error (Printf.sprintf "%s:%d: %s" path n) in
  let* text = Event.read_file path in
  let* n, _, fields, body = Event.split ~file:path text in
  let* t = at n (parse_meta fields) in
  let* switches =
    List.fold_left
      (fun acc (i, line) ->
        let* acc = acc in
        let* sw = at i (parse_switch ~nharts:t.nharts line) in
        Ok (sw :: acc))
      (Ok []) body
  in
  Ok { t with switches = List.rev switches }
