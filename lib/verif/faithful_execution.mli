(** Faithful execution of loads and stores (Definition 2, §6.3–6.4).

    The VFM must program the host PMP so that direct execution behaves
    as on a reference machine holding the virtual PMP configuration:

    - accesses to Miralis's own memory or the virtual-device window
      must fail on the host regardless of the virtual configuration;
    - every other access must succeed or fail on the host exactly as
      the reference [pmpCheck] decides for the virtual entries — with
      M-mode semantics while the firmware executes (plus the
      execute-only restriction during MPRV emulation) and S-mode
      semantics while the OS executes.

    The checker samples virtual PMP configurations (written through
    the architectural WARL path, so locked entries and reserved
    combinations are covered), builds the host entries with
    {!Miralis.Vpmp.build}, and compares verdicts at region boundaries
    and random probe addresses. *)

val run :
  ?configs:int -> ?inject_bug:Miralis.Config.bug -> ?seed:int64 -> unit ->
  int * int * int * string option
(** (cases, skipped, mismatches, first counterexample) over [configs]
    sampled configurations; nothing is skipped. *)
