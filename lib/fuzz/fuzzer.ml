module Prng = Mir_util.Prng

(* The ISA family: the VFM emulator against the reference machine (the
   executable ISA spec) over grammar-generated privileged-instruction
   streams. Its generator is the coverage-guided one: sixteen fresh
   grammar streams seed the corpus, then every case mutates a corpus
   entry. Generation and scheduling draw from PRNG streams derived from
   the root seed, so a campaign is a pure function of (seed,
   max_execs). *)

module Family = struct
  type case = Input.t
  type exec = Exec.t
  type line = Input.op

  let name = "isa"
  let header = "fuzz"
  let create ?inject_bug ~seed () = Ok (Exec.create ?inject_bug ~seed ())
  let seed_count = 16

  let generator exec ~seed =
    let config = Exec.config exec in
    let gen_prng = Miralis.Config.derive seed "fuzz:gen" in
    let sched_prng = Miralis.Config.derive seed "fuzz:sched" in
    (* The very first input always lands new edges, so the corpus is
       never empty when mutation starts. *)
    let seeds =
      ref
        (List.init seed_count (fun _ ->
             Gen.fresh config gen_prng ~len:(4 + Prng.int_below gen_prng 37)))
    in
    fun corpus ->
      match !seeds with
      | s :: rest ->
          seeds := rest;
          s
      | [] ->
          (* max of two draws biases parents toward recent discoveries *)
          let n = Array.length corpus in
          let i = Prng.int_below sched_prng n
          and j = Prng.int_below sched_prng n in
          let parent = corpus.(max i j) in
          Gen.mutate config sched_prng ~corpus parent

  let check exec ~edge input =
    Option.map
      (fun (i, msg) -> Printf.sprintf "op %d: %s" i msg)
      (Exec.run ~edge exec input)

  let shrink = Shrink.shrink
  let pp = Input.pp
  let builtin = Vectors.builtin
  let to_jsonl = Input.to_jsonl
  let parse_line = Input.op_of_fields
  let of_lines = Input.of_fields
end

include Difftest.Make (Family)
