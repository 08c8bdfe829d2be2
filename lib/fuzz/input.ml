module Instr = Mir_rv.Instr
module Encode = Mir_rv.Encode
module Decode = Mir_rv.Decode
module Event = Mir_trace.Event

(* A fuzz input is a self-contained, replayable test vector: a state
   seed (the initial architectural sample is regenerated from it, so
   vectors stay one-line small) plus a stream of operations. *)

type op =
  | Op_instr of Instr.t  (** one privileged instruction *)
  | Op_lines of { mtip : bool; msip : bool; meip : bool }
      (** drive the timer/software/external interrupt lines *)

type t = { seed : int64; ops : op list }

let length t = List.length t.ops

let pp_op fmt = function
  | Op_instr i -> Format.fprintf fmt "%s" (Instr.to_string i)
  | Op_lines { mtip; msip; meip } ->
      Format.fprintf fmt "lines mtip=%b msip=%b meip=%b" mtip msip meip

let pp fmt t =
  Format.fprintf fmt "seed=0x%Lx (%d ops)" t.seed (length t);
  List.iter (fun op -> Format.fprintf fmt "@\n  %a" pp_op op) t.ops

(* ------------------------------------------------------------------ *)
(* JSONL serialization                                                 *)
(* ------------------------------------------------------------------ *)

(* One flat JSON object per line: a header carrying the seed, then one
   line per operation. Instructions travel as their 32-bit encoding,
   so the decoder is the single source of truth for what a vector
   means. [op_of_fields] and [of_fields] are the exact inverse, fed
   line by line by {!Difftest}. *)

let to_jsonl t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "{\"fuzz\":1,\"seed\":\"0x%Lx\"}\n" t.seed);
  List.iter
    (fun op ->
      (match op with
      | Op_instr i ->
          Buffer.add_string buf
            (Printf.sprintf "{\"op\":\"i\",\"bits\":\"0x%x\"}"
               (Encode.encode i))
      | Op_lines { mtip; msip; meip } ->
          Buffer.add_string buf
            (Printf.sprintf "{\"op\":\"l\",\"mtip\":%b,\"msip\":%b,\"meip\":%b}"
               mtip msip meip));
      Buffer.add_char buf '\n')
    t.ops;
  Buffer.contents buf

let ( let* ) = Result.bind

let op_of_fields fields =
  let* op = Event.field fields "op" in
  match op with
  | "i" ->
      let* bits = Event.i64_field fields "bits" in
      let bits = Int64.to_int (Int64.logand bits 0xFFFFFFFFL) in
      (match Decode.decode bits with
      | Some i -> Ok (Op_instr i)
      | None -> Error (Printf.sprintf "bits 0x%x do not decode" bits))
  | "l" ->
      let* mtip = Event.bool_field fields "mtip" in
      let* msip = Event.bool_field fields "msip" in
      let* meip = Event.bool_field fields "meip" in
      Ok (Op_lines { mtip; msip; meip })
  | other -> Error (Printf.sprintf "unknown op kind %S" other)

let of_fields header ops =
  let* seed = Event.i64_field header "seed" in
  Ok { seed; ops }
