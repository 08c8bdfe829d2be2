(** One differential-testing engine for every fuzz family.

    Each family checks one fast path or policy against its oracle: the
    VFM emulator against the reference machine (isa), the TLB against
    the raw walker (paging), the block engine against the interpreter
    (blocks), the ACE policy against its steal/return model (ace). A
    family ({!FAMILY}) supplies only what is its own; {!Make} adds what
    they share, once: the campaign loop over an AFL-style edge map, the
    corpus and coverage curve, corpus persistence, replay and the
    report. {!replay_path} and {!emit} dispatch vector files to
    families by the first key of their header line. *)

module Event = Mir_trace.Event

type fields = (string * string) list
(** One parsed line ({!Mir_trace.Event.parse_fields}). *)

(** What a family supplies: only what is its own. *)
module type FAMILY = sig
  type case

  type exec
  (** Per-campaign executor state. *)

  type line
  (** One decoded body line of a vector file. *)

  val name : string
  (** The [fuzz --family] name. *)

  val header : string
  (** First key of the header line of this family's vector files. *)

  val create :
    ?inject_bug:Miralis.Config.bug -> seed:int64 -> unit ->
    (exec, string) result
  (** A fresh executor; [Error] when the family cannot host
      [inject_bug]. *)

  val generator : exec -> seed:int64 -> case array -> case
  (** One campaign's case source: each call yields the next case,
      given the corpus found so far. All randomness derives from
      [seed]. *)

  val check : exec -> edge:(int -> unit) -> case -> string option
  (** Run one case on both sides, passing each coverage edge index to
      [edge]; [Some reason] names the first divergence. *)

  val shrink : exec -> case -> case
  (** A case no larger than the given diverging one that still
      diverges. *)

  val pp : Format.formatter -> case -> unit

  val builtin : (string * case) list
  (** Named conformance vectors; a name is the file name without
      [.jsonl]. *)

  val to_jsonl : case -> string
  val parse_line : fields -> (line, string) result

  val of_lines : fields -> line list -> (case, string) result
  (** A case from its header fields and body lines. *)
end

type verdict = {
  family : string;
  vectors : string list;  (** names replayed, in order *)
  edges : int;  (** distinct edges the vectors reach *)
  failures : (string * string) list;  (** (name, reason) per divergence *)
}
(** The outcome of replaying one family's vectors. *)

(** A family plus the shared mechanics ({!Make}). *)
module type S = sig
  include FAMILY

  type divergence = {
    case : case;  (** the diverging case, as generated *)
    shrunk : case;  (** minimized reproduction *)
    reason : string;  (** the shrunk case's first mismatch *)
    at_exec : int;  (** executions run when it was found *)
  }

  type result = {
    execs : int;
    seconds : float;
    execs_per_sec : float;
    coverage : Coverage.t;
    edges : int;  (** distinct edges in [coverage] *)
    corpus : case list;  (** coverage-increasing cases, discovery order *)
    curve : (int * int) list;  (** (execs, distinct edges) samples *)
    divergence : divergence option;
  }

  val run :
    ?inject_bug:Miralis.Config.bug ->
    ?corpus_dir:string ->
    seed:int64 ->
    max_execs:int ->
    unit ->
    result
  (** Run [max_execs] generated cases, or stop at the first divergence
      and shrink it. A case that reaches a new edge or crosses a hit
      count bucket joins the corpus. Equal (seed, max_execs) campaigns
      give equal corpora, coverage maps and verdicts. With
      [corpus_dir], writes the corpus, the coverage map and any crash
      (plus its shrunk form) there under content-hash names. Raises
      [Invalid_argument] if the family cannot host [inject_bug], and
      [Sys_error] if [corpus_dir] cannot be written. *)

  val replay :
    ?inject_bug:Miralis.Config.bug ->
    seed:int64 ->
    (string * case) list ->
    (verdict, string) Stdlib.result
  (** Check named cases without mutation, recording every divergence;
      [Error] when the family cannot host [inject_bug]. *)

  val decode : file:string -> string -> (case, string) Stdlib.result
  (** Inverse of [to_jsonl]. [Error] is a ["file:line: reason"]
      diagnostic; never raises. *)

  val pp_result : Format.formatter -> result -> unit
  (** Coverage curve, summary line and any divergence with its shrunk
      reproduction as JSONL. *)
end

(* [create] of a family with no injectable bug classes. *)
let no_bugs ~family inject_bug exec =
  match inject_bug with
  | None -> Ok exec
  | Some _ -> Error ("the " ^ family ^ " family has no injectable bug classes")

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"))

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* FNV-1a over a vector's JSONL text: equal cases get equal file names,
   so same-seed campaigns write identical corpus directories. *)
let text_hash s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

(* ------------------------------------------------------------------ *)
(* The shared mechanics                                                *)
(* ------------------------------------------------------------------ *)

module Make (F : FAMILY) : S with type case = F.case = struct
  include F

  type divergence = {
    case : case;
    shrunk : case;
    reason : string;
    at_exec : int;
  }

  type result = {
    execs : int;
    seconds : float;
    execs_per_sec : float;
    coverage : Coverage.t;
    edges : int;
    corpus : case list;
    curve : (int * int) list;
    divergence : divergence option;
  }

  let decode ~file text =
    let at n msg = Error (Printf.sprintf "%s:%d: %s" file n msg) in
    match Event.split ~file text with
    | Error e -> Error e
    | Ok (n, key, _, _) when key <> F.header ->
        at n (Printf.sprintf "not a %S vector header" F.header)
    | Ok (n, _, header, body) ->
        let rec go acc = function
          | [] -> (
              match F.of_lines header (List.rev acc) with
              | Ok c -> Ok c
              | Error e -> at n e)
          | (i, l) :: rest -> (
              match Result.bind (Event.parse_fields l) F.parse_line with
              | Ok x -> go (x :: acc) rest
              | Error e -> at i e)
        in
        go [] body

  let save ~dir ~prefix ~suffix c =
    let text = F.to_jsonl c in
    write_file
      (Filename.concat dir
         (Printf.sprintf "%s-%016Lx%s" prefix (text_hash text) suffix))
      text

  let run ?inject_bug ?corpus_dir ~seed ~max_execs () =
    let t0 = Sys.time () in
    let exec =
      match F.create ?inject_bug ~seed () with
      | Ok exec -> exec
      | Error msg -> invalid_arg msg
    in
    Option.iter ensure_dir corpus_dir;
    let next = F.generator exec ~seed in
    let coverage = Coverage.create () in
    let corpus = ref [||] in
    let execs = ref 0 in
    let curve = ref [] in
    let divergence = ref None in
    let stride = max 1 (max_execs / 20) in
    while !execs < max_execs && Option.is_none !divergence do
      let case = next !corpus in
      let interesting = ref false in
      let edge i = if Coverage.add coverage i then interesting := true in
      let verdict = F.check exec ~edge case in
      incr execs;
      if !interesting then corpus := Array.append !corpus [| case |];
      (match verdict with
      | Some reason ->
          let shrunk = F.shrink exec case in
          let reason =
            Option.value (F.check exec ~edge:ignore shrunk) ~default:reason
          in
          divergence := Some { case; shrunk; reason; at_exec = !execs }
      | None -> ());
      if !execs mod stride = 0 || !execs = max_execs then
        curve := (!execs, Coverage.edges coverage) :: !curve
    done;
    if !curve = [] || fst (List.hd !curve) <> !execs then
      curve := (!execs, Coverage.edges coverage) :: !curve;
    let seconds = Sys.time () -. t0 in
    let result =
      {
        execs = !execs;
        seconds;
        execs_per_sec =
          (if seconds > 0. then float_of_int !execs /. seconds else 0.);
        coverage;
        edges = Coverage.edges coverage;
        corpus = Array.to_list !corpus;
        curve = List.rev !curve;
        divergence = !divergence;
      }
    in
    Option.iter
      (fun dir ->
        List.iter (save ~dir ~prefix:"cov" ~suffix:".jsonl") result.corpus;
        write_file
          (Filename.concat dir "coverage.txt")
          (Coverage.to_string coverage);
        Option.iter
          (fun d ->
            save ~dir ~prefix:"crash" ~suffix:".jsonl" d.case;
            save ~dir ~prefix:"crash" ~suffix:".min.jsonl" d.shrunk)
          result.divergence)
      corpus_dir;
    result

  let replay ?inject_bug ~seed cases =
    Result.map
      (fun exec ->
        let coverage = Coverage.create () in
        let edge i = ignore (Coverage.add coverage i) in
        let failures =
          List.filter_map
            (fun (name, c) ->
              Option.map (fun reason -> (name, reason)) (F.check exec ~edge c))
            cases
        in
        {
          family = F.name;
          vectors = List.map fst cases;
          edges = Coverage.edges coverage;
          failures;
        })
      (F.create ?inject_bug ~seed ())

  let pp_result fmt r =
    List.iter
      (fun (execs, edges) ->
        Format.fprintf fmt "  after %6d execs: %4d edges@\n" execs edges)
      r.curve;
    Format.fprintf fmt
      "%d execs in %.2fs (%.0f/s), %d coverage edges, %d corpus inputs@\n"
      r.execs r.seconds r.execs_per_sec r.edges (List.length r.corpus);
    match r.divergence with
    | None -> Format.fprintf fmt "no divergence found@\n"
    | Some d ->
        Format.fprintf fmt
          "DIVERGENCE after %d execs:@\n  %s@\nfailing case: %a@\n\
           shrunk case: %a@\nshrunk reproduction:@\n%s"
          d.at_exec d.reason F.pp d.case F.pp d.shrunk (F.to_jsonl d.shrunk)
end

(* ------------------------------------------------------------------ *)
(* Vector files across families                                       *)
(* ------------------------------------------------------------------ *)

type family = (module S)

(* Replay a vector file, or every [*.jsonl] file of a directory in
   name order. Each file goes to the family whose [header] is the first
   key of its header line; one verdict per family that claimed a file.
   [Error] lists every diagnostic (missing path, no vectors, unreadable
   or malformed file, unknown header, refused [inject_bug]); nothing is
   replayed when a file is malformed. Never raises. *)
let replay_path families ?inject_bug ~seed path =
  match Event.jsonl_files path with
  | Error e -> Error [ e ]
  | Ok files -> (
      let errors = ref [] in
      let fail e =
        errors := e :: !errors;
        None
      in
      let headers = List.map (fun (module D : S) -> D.header) families in
      let claimed =
        List.filter_map
          (fun file ->
            match Event.read_file file with
            | Error e -> fail e
            | Ok text -> (
                match Event.split ~file text with
                | Error e -> fail e
                | Ok (_, key, _, _) when List.mem key headers ->
                    Some (key, file, text)
                | Ok (n, key, _, _) ->
                    fail
                      (Printf.sprintf
                         "%s:%d: unknown vector header %S (known: %s)" file n
                         key (String.concat ", " headers))))
          files
      in
      (* decode every file before replaying any *)
      let jobs =
        List.filter_map
          (fun (module D : S) ->
            let cases =
              List.filter_map
                (fun (key, file, text) ->
                  if key <> D.header then None
                  else
                    match D.decode ~file text with
                    | Ok c -> Some (Filename.basename file, c)
                    | Error e -> fail e)
                claimed
            in
            if cases = [] then None
            else Some (fun () -> D.replay ?inject_bug ~seed cases))
          families
      in
      if !errors <> [] then Error (List.rev !errors)
      else
        let results = List.map (fun job -> job ()) jobs in
        match
          List.filter_map (function Error e -> Some e | Ok _ -> None) results
        with
        | [] -> Ok (List.filter_map Result.to_option results)
        | refused -> Error refused)

let pp_verdicts fmt verdicts =
  List.iter
    (fun v ->
      Format.fprintf fmt "%s: replayed %d vectors, %d coverage edges@\n"
        v.family (List.length v.vectors) v.edges;
      List.iter
        (fun (name, reason) ->
          Format.fprintf fmt "DIVERGENCE in %s:@\n  %s@\n" name reason)
        v.failures)
    verdicts;
  let count f = List.fold_left (fun n v -> n + List.length (f v)) 0 verdicts in
  if count (fun v -> v.failures) = 0 then
    Format.fprintf fmt "all %d vectors agree@\n" (count (fun v -> v.vectors))

(* Write every family's builtin vectors to [<dir>/<name>.jsonl]. *)
let emit families ~dir =
  try
    ensure_dir dir;
    Ok
      (List.concat_map
         (fun (module D : S) ->
           List.map
             (fun (name, c) ->
               let path = Filename.concat dir (name ^ ".jsonl") in
               write_file path (D.to_jsonl c);
               path)
             D.builtin)
         families)
  with Sys_error msg -> Error msg
