(** Trace events: the observable effects of one execution.

    Each event is stamped at emission time with the hart it happened
    on, the machine-global retired-instruction count, the hart's pc,
    and a digest of the hart's architectural state (pc, privilege,
    GPRs, trap/virtualization-relevant CSRs). During replay the digest
    pins down silent divergence — a run whose events *look* identical
    but whose state has drifted fails on the first digest mismatch. *)

type kind =
  | Trap of {
      cause : Mir_rv.Cause.t;
      from_priv : Mir_rv.Priv.t;
      to_m : bool;
      tval : int64;
    }  (** architectural trap entry (M- or S-targeted) *)
  | Vtrap of { cause : Mir_rv.Cause.t; tval : int64 }
      (** trap injected into the virtual firmware by the VFM *)
  | Csr_write of { addr : int; value : int64 }
      (** guest CSR instruction wrote [addr]; [value] is the
          legalized stored result *)
  | Mmio of { write : bool; addr : int64; size : int; value : int64 }
      (** device (non-RAM) access *)
  | World_switch of { to_fw : bool }
  | Pmp_reinstall
  | Sbi_call of { ext : int64; fid : int64; offloaded : bool }

type t = {
  seq : int;  (** position in the recording *)
  hart : int;
  instrs : int64;  (** machine-global retired instructions *)
  pc : int64;
  digest : int64;  (** per-hart architectural-state digest *)
  kind : kind;
}

val kind_name : kind -> string

val equal : t -> t -> bool
(** Structural equality ignoring [seq] (replay from a checkpoint
    restarts the counter). *)

val to_json : t -> string
(** One compact JSON object, no newline. int64s are quoted hex. *)

val of_json : string -> (t, string) result

val parse_fields : string -> ((string * string) list, string) result
(** The flat-object parser behind {!of_json}: ["key":value,...] with
    string, bool and integer values, returned in order. Shared with
    the other JSONL artifact formats (schedules, fuzz vectors). *)

val field : (string * string) list -> string -> (string, string) result
val int_field : (string * string) list -> string -> (int, string) result

val i64_field : (string * string) list -> string -> (int64, string) result
(** Accepts the full unsigned hex range. *)

val bool_field : (string * string) list -> string -> (bool, string) result
(** Typed lookups into {!parse_fields} output; [Error] names the key. *)

(** {2 JSONL artifact files}

    Shared by every line-oriented format: traces, explorer schedules
    and fuzz vectors. None of these raises. *)

val read_file : string -> (string, string) result
(** The whole file; [Error] is the system's message, naming the path. *)

val split :
  file:string ->
  string ->
  (int * string * (string * string) list * (int * string) list, string) result
(** A file's header line — its number, first key and fields — and its
    non-blank body lines, numbered from 1. [Error] is a
    ["file:line: reason"] diagnostic. *)

val jsonl_files : string -> (string list, string) result
(** A file path itself, or every [*.jsonl] file of a directory in name
    order. [Error] for a missing path or a directory without any. *)

val pp : Format.formatter -> t -> unit
val pp_kind : Format.formatter -> kind -> unit
