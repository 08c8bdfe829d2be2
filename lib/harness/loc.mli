(** Lines-of-code accounting (the paper's Table 1).

    Counts non-blank source lines per VFM subsystem, mapped onto the
    paper's decomposition: emulator, hardware interface, MMIO devices,
    fast-path offload, and other. *)

val count_file : string -> int
(** Non-blank lines in one file (0 if unreadable). *)

val project_root : unit -> string option
(** The directory containing [dune-project], searched upward from the
    current directory. *)

val table1 : unit -> (string * int) list
(** (subsystem, LoC) rows for the VFM core, ending with a total that
    counts every module of [lib/core]. *)

val repo_inventory : unit -> (string * int) list
(** Non-blank [.ml]/[.mli] lines per directory: one row for every
    subdirectory of [lib/] (named ["lib/<dir>"]), then [bin], [bench],
    [examples] and [test]. *)
