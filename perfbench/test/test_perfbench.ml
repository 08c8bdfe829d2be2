(* Determinism self-test of the benchmark at smoke size.

   Each run executes in a forked child, so that heap measurements start
   from the same process state, and sends its results back over a pipe.
   Same seed: identical sim_cpi, set-up heap words, digests and
   per-layer counts. Different seed: different digests, so every
   workload feeds its seed into what it runs. *)

open Perfbench

type outcome = {
  correct : bool;
  digests : int64 * int64;  (** untraced, traced *)
  exact : (string * float) list;  (** metrics that must repeat exactly *)
}

let exact_metrics (r : Bench.result) ~keep =
  List.filter_map
    (fun (m : Bench.metric) -> if keep m then Some (m.Bench.name, m.Bench.value) else None)
    r.Bench.metrics

let untraced (w : Workloads.t) ~seed = Bench.untraced w ~sizing:Bench.smoke ~seed ~seconds:1e-6

let run_smoke (w : Workloads.t) ~seed =
  let u = untraced w ~seed in
  let t = Bench.traced w ~sizing:Bench.smoke ~seed ~seconds:1e-6 in
  {
    correct = u.Bench.correct && t.Bench.correct;
    digests = (u.Bench.digest, t.Bench.digest);
    exact =
      exact_metrics u ~keep:(fun m -> List.mem m.Bench.name [ "sim_cpi"; "setup_mb" ])
      @ exact_metrics t ~keep:(fun m -> m.Bench.unit_ = "count");
  }

(* Fork a child running [f] and return a function that collects its
   result. Both runs of a pair are forked before either result is read,
   so they start from the same process state. *)
let spawn f =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (f ()) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      fun () ->
        let ic = Unix.in_channel_of_descr rd in
        let v = Marshal.from_channel ic in
        close_in ic;
        ignore (Unix.waitpid [] pid);
        v

let same_seed (w : Workloads.t) () =
  let a = spawn (fun () -> run_smoke w ~seed:11L) in
  let b = spawn (fun () -> run_smoke w ~seed:11L) in
  let (a : outcome) = a () and (b : outcome) = b () in
  Alcotest.(check bool) "outputs check" true (a.correct && b.correct);
  Alcotest.(check (pair int64 int64)) "digests" a.digests b.digests;
  Alcotest.(check (list (pair string (float 0.)))) "exact metrics" a.exact b.exact

let other_seed (w : Workloads.t) () =
  let a = untraced w ~seed:11L and b = untraced w ~seed:12L in
  Alcotest.(check bool) "outputs check" true (a.Bench.correct && b.Bench.correct);
  Alcotest.(check bool) "digests differ" false (Int64.equal a.Bench.digest b.Bench.digest)

let () =
  Alcotest.run "perfbench"
    [
      ( "same seed",
        List.map (fun w -> Alcotest.test_case w.Workloads.name `Quick (same_seed w)) Workloads.all );
      ( "different seed",
        List.map (fun w -> Alcotest.test_case w.Workloads.name `Quick (other_seed w)) Workloads.all );
    ]
