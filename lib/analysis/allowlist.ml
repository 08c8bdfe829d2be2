type entry = {
  rule : string;
  path : string;
  line : int option;
  reason : string;
}

let e ?line rule path reason = { rule; path; line; reason }

(* Keep this list short and honest: an entry is a debt note, and every
   one must say why the exception is sound. Directory prefixes end in
   '/'; everything else is an exact repo-relative file path. *)
let entries =
  [
    (* -------------------------------------------------------------- *)
    (* determinism: wall-clock used for human-facing throughput        *)
    (* reporting only. None of these values feed simulation state,     *)
    (* seeds, traces or digests — the fuzzer/prover/fleet results are  *)
    (* bit-identical under any clock.                                  *)
    (* -------------------------------------------------------------- *)
    e "determinism" "lib/fuzz/difftest.ml"
      "Sys.time only computes the execs/sec figure printed in the \
       campaign summary of every fuzz family; coverage, corpus and \
       divergence results are clock-independent";
    e "determinism" "lib/verif/tasks.ml"
      "Sys.time only stamps the per-task seconds field of verification \
       reports; proof outcomes are exhaustive and clock-independent";
    e "determinism" "lib/verif/prove.ml"
      "Sys.time only stamps the seconds fields of prover reports \
       (BENCH_sym.json); path enumeration is exhaustive and \
       clock-independent";
    e "determinism" "lib/fleet/fleet.ml"
      "Unix.gettimeofday only measures host wall_seconds for the \
       throughput report; the determinism contract (bit-identical \
       results across domain counts) is tested over everything else";
    (* -------------------------------------------------------------- *)
    (* domain-capture                                                  *)
    (* -------------------------------------------------------------- *)
    e "domain-capture" "lib/fleet/fleet.ml"
      "Fleet.run's pool closure writes slots.(id) where id is the task \
       index: Pool.run runs every task exactly once, so writes are to \
       disjoint indices, and Domain.join in the pool publishes them \
       before slots is read";
  ]

let suppresses ent (d : Diagnostic.t) =
  ent.rule = d.rule
  && (match ent.line with None -> true | Some l -> l = d.line)
  &&
  let plen = String.length ent.path in
  if plen > 0 && ent.path.[plen - 1] = '/' then
    String.length d.file >= plen && String.sub d.file 0 plen = ent.path
  else ent.path = d.file

let apply ds =
  let used = ref [] in
  let kept =
    List.filter
      (fun d ->
        match List.find_opt (fun ent -> suppresses ent d) entries with
        | Some ent ->
            if not (List.memq ent !used) then used := ent :: !used;
            false
        | None -> true)
      ds
  in
  (kept, List.filter (fun ent -> not (List.memq ent !used)) entries)
