(** Differential oracle for the memory-system fast paths: a TLB-backed
    machine against a raw-walker machine ([tlb_entries = 0]) over a
    shared stream of paging operations. PTE edits are always fenced
    (stale-until-sfence is architecturally legal); satp switches,
    SUM/MXR/MPRV writes, and PMP reconfigurations are deliberately not
    — the TLB must self-invalidate there, which is the property under
    test. *)

type access_kind = Aload | Astore | Afetch

type op =
  | Map of {
      root : int;
      vpn : int;
      page : int;
      perms : int;
      fence_all : bool;
    }
  | Unmap of { root : int; vpn : int; fence_all : bool }
  | Sfence of { vaddr : int64 option }
  | Satp_switch of int  (** 0, 1, or 2 = bare *)
  | Sum_toggle
  | Mxr_toggle
  | Mprv_toggle
  | Priv_set of Mir_rv.Priv.t
  | Pmp_set of { slot : int; base_page : int; npages : int; perms : int }
  | Access of {
      kind : access_kind;
      vaddr : int64;
      size : int;
      value : int64;
    }

type outcome = Value of int64 | Stored | Fault of Mir_rv.Cause.exc | Nothing

val pool_pages : int
(** Number of 4 KiB data pages ops may map / PMP-cover. *)

type divergence = {
  op_index : int;  (** -1 when the final RAM hashes disagree *)
  op : op option;  (** [None] when the final RAM hashes disagree *)
  tlb_outcome : string;
  walker_outcome : string;
}

type pair

val create_pair : unit -> pair
(** Build the two machines once; [run_ops] resets them per stream. *)

val run_ops :
  pair -> on_outcome:(int -> op -> outcome -> unit) -> op list ->
  divergence option
