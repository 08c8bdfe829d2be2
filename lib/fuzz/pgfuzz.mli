(** The paging family: generated streams of page-table edits, satp
    switches, fences, SUM/MXR/MPRV flips, PMP reconfigurations, and
    S/U/M memory probes, checked TLB machine against raw-walker machine
    via {!Mir_verif.Pgdiff}. Vectors carry the [pgdiff] header and one
    op per line; no builtin vectors, no shrinking. *)

include Difftest.S with type case = Mir_verif.Pgdiff.op list
