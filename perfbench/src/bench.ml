(* The benchmark runner: untraced timed runs (end-to-end metrics),
   traced runs (per-layer metrics), output checks and the JSON result
   line. *)

module W = Workloads

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  digest : int64;  (** the workload instance's digest at the end *)
  lines : string list;  (** human-readable report, printed before the JSON *)
}

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.
let ratio a b = if b = 0. then 0. else a /. b

(* quantiles of a sorted array: the median, and the nearest-rank
   percentile *)
let median a =
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let nearest_rank a p =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let sorted_ms durs = sorted (List.map Spans.ms_of_ns durs)

(* Sizing. A full run times at least [min_ops] ops, so that at least
   ten samples lie beyond the 90th percentile. sim_cpi and peak_mb are
   taken over the first [exact_ops] ops, so that they do not depend on
   how many ops the host managed. *)
type sizing = { smoke : bool; min_ops : int; exact_ops : int; setup_reps : int }

let full = { smoke = false; min_ops = 110; exact_ops = 100; setup_reps = 7 }
let smoke = { smoke = true; min_ops = 3; exact_ops = 3; setup_reps = 2 }

type op_record = { dur_ns : int; op : W.op }

let run_op (inst : W.instance) i =
  let t0 = Spans.now () in
  let op =
    try inst.W.run_op i
    with e -> { W.steps = 0; cycles = 0; failure = Some ("exception: " ^ Printexc.to_string e) }
  in
  { dur_ns = Spans.now () - t0; op }

let failures ops =
  List.filter_map (fun r -> r.op.W.failure) ops

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                    *)
(* ------------------------------------------------------------------ *)

let untraced (w : W.t) ~sizing ~seed ~seconds =
  let checks = ref [] in
  let check ok msg = if not ok then checks := msg :: !checks in
  (* Interpreter-only replay of the prefix up to the end of the first
     op, the reference for the long-lived systems. *)
  let reference =
    if w.W.long_lived then begin
      let inst = w.W.setup ~interp:true ~smoke:sizing.smoke ~seed () in
      let r = run_op inst 0 in
      check (r.op.W.failure = None) "interpreter-only replay failed";
      Some (inst.W.digest ())
    end
    else None
  in
  (* Set-up is repeated, some repetitions before the timed ops and the
     rest after them, so that its median spans the run; every
     repetition must reach the same state. *)
  let setup_s = ref [] and digests = ref [] in
  let set_up () =
    Gc.full_major ();
    let t0 = Spans.now () in
    let i = w.W.setup ~interp:false ~smoke:sizing.smoke ~seed () in
    setup_s := (float_of_int (Spans.now () - t0) /. 1e9) :: !setup_s;
    digests := i.W.digest () :: !digests;
    i
  in
  for _ = 2 to (sizing.setup_reps + 1) / 2 do
    ignore (set_up ())
  done;
  let inst = set_up () in
  Gc.full_major ();
  let setup_words = (Gc.quick_stat ()).Gc.heap_words in
  (* Timed ops. *)
  let start = Spans.now () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let hard_stop = start + int_of_float (Float.max 60. (3. *. seconds) *. 1e9) in
  let ops = ref [] in
  let n = ref 0 in
  let top_words = ref 0 in
  while
    let t = Spans.now () in
    (t < deadline || !n < sizing.min_ops) && t < hard_stop
  do
    ops := run_op inst !n :: !ops;
    if !n = 0 then
      Option.iter
        (fun d ->
          check (inst.W.digest () = d)
            "state, steps or cycles differ from the interpreter-only replay")
        reference;
    incr n;
    if !n = sizing.exact_ops then top_words := (Gc.quick_stat ()).Gc.top_heap_words
  done;
  let ops = List.rev !ops in
  let digest = inst.W.digest () in
  for _ = (sizing.setup_reps + 1) / 2 + 1 to sizing.setup_reps do
    ignore (set_up ())
  done;
  let setup_s = List.rev !setup_s in
  if !top_words = 0 then top_words := (Gc.quick_stat ()).Gc.top_heap_words;
  check
    (List.for_all (fun d -> d = List.hd !digests) !digests)
    "set-up repetitions reached different states";
  let attempted = List.length ops in
  let fails = failures ops in
  let failed = List.length fails in
  let durs = sorted_ms (List.map (fun r -> r.dur_ns) ops) in
  let total_ns = List.fold_left (fun acc r -> acc + r.dur_ns) 0 ops in
  let steps = List.fold_left (fun acc r -> acc + r.op.W.steps) 0 ops in
  let rates = sorted (List.map (fun r -> float_of_int r.op.W.steps /. (float_of_int r.dur_ns /. 1e3)) ops) in
  let window = List.filteri (fun i _ -> i < sizing.exact_ops) ops in
  let wsteps = List.fold_left (fun acc r -> acc + r.op.W.steps) 0 window in
  let wcycles = List.fold_left (fun acc r -> acc + r.op.W.cycles) 0 window in
  (* difftest's fuzzers own their machines, so it retires no steps the
     benchmark can see, and none of its machines outlives a campaign:
     mips, sim_cpi and setup_mb read 1 (not applicable) *)
  let mips = if steps = 0 then 1. else median rates in
  let sim_cpi = if wsteps = 0 then 1. else float_of_int wcycles /. float_of_int wsteps in
  let setup_mb = if steps = 0 then 1. else mb_of_words setup_words in
  let p90 = nearest_rank durs 0.9 in
  let beyond = Array.fold_left (fun acc d -> if d > p90 then acc + 1 else acc) 0 durs in
  let metrics =
    [
      { name = "op_ms"; value = median durs; unit_ = "ms" };
      { name = "op_p90_ms"; value = p90; unit_ = "ms" };
      { name = "mips"; value = mips; unit_ = "steps/us" };
      { name = "setup_s"; value = median (sorted setup_s); unit_ = "s" };
      { name = "setup_mb"; value = setup_mb; unit_ = "MB" };
      { name = "peak_mb"; value = mb_of_words !top_words; unit_ = "MB" };
      { name = "ok_ratio"; value = float_of_int (attempted - failed) /. float_of_int (max 1 attempted); unit_ = "ratio" };
      { name = "sim_cpi"; value = sim_cpi; unit_ = "cycles/step" };
    ]
  in
  let lines =
    [
      Printf.sprintf "workload %s seed %Ld: %d ops in %.2f s, p90 over %d samples (%d beyond it)"
        w.W.name seed attempted (float_of_int total_ns /. 1e9) attempted beyond;
      Printf.sprintf "  set-up %s s; digest %016Lx; %d steps timed"
        (String.concat " / " (List.map (Printf.sprintf "%.3f") setup_s))
        digest steps;
    ]
    @ List.map (fun f -> "  FAILED op: " ^ f) (List.sort_uniq compare fails)
    @ List.map (fun c -> "  FAILED check: " ^ c) (List.rev !checks)
  in
  { correct = failed = 0 && !checks = []; attempted; failed; metrics; digest; lines }

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)
(* ------------------------------------------------------------------ *)

let layer_shares = [ "build"; "machine"; "monitor"; "policy"; "oracle"; "fuzz"; "other" ]

let traced ?spans_path (w : W.t) ~sizing ~seed ~seconds =
  let k =
    if sizing.smoke then 2
    else max 8 (int_of_float (float_of_int w.W.trace_ops *. seconds /. 10.))
  in
  (* An untraced instance runs the same ops, each one right before its
     traced twin, so that host drift cancels out of the overhead ratio;
     its digest and counts must equal the traced ones. *)
  let plain = w.W.setup ~interp:false ~smoke:sizing.smoke ~seed () in
  let tr = Spans.create () in
  let major_collections () = (Gc.quick_stat ()).Gc.major_collections in
  let majors0 = major_collections () in
  let inst =
    Spans.span tr (Spans.id tr "setup") (fun () ->
        w.W.setup ~tr ~interp:false ~smoke:sizing.smoke ~seed ())
  in
  let op_id = Spans.id tr "op" in
  let minor_words = ref 0. and majors = ref (major_collections () - majors0) in
  let pairs =
    List.init k (fun i ->
        let p = run_op plain i in
        Spans.set_op tr i;
        let w0 = Gc.minor_words () and m0 = major_collections () in
        let t = Spans.span tr op_id (fun () -> run_op inst i) in
        minor_words := !minor_words +. (Gc.minor_words () -. w0);
        majors := !majors + (major_collections () - m0);
        (p, t))
  in
  let plain_ops = List.map fst pairs and ops = List.map snd pairs in
  let digest = inst.W.digest () in
  let counts = inst.W.counts () in
  let same =
    digest = plain.W.digest () && Layers.sorted counts = Layers.sorted (plain.W.counts ())
  in
  Option.iter (fun path -> Spans.write tr ~path) spans_path;
  let fails = failures ops @ failures plain_ops in
  let cnt k = float_of_int (Layers.count counts k) in
  let calls k = float_of_int (Spans.calls tr k) in
  let classes = Array.to_list (Array.map (fun c -> "monitor." ^ c) Layers.monitor_classes) in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l in
  let fuzz = List.map (fun f -> "fuzz." ^ f) W.families in
  let self = function
    | "monitor" -> sum (Spans.self_ms tr) classes
    | "fuzz" -> sum (Spans.self_ms tr) fuzz
    | "other" -> Spans.self_ms tr "op" +. Spans.self_ms tr "setup"
    | l -> Spans.self_ms tr l
  in
  let traced_ms = Spans.total_ms tr "op" +. Spans.total_ms tr "setup" in
  let shares = List.map (fun l -> (l, ratio (self l) traced_ms)) layer_shares in
  let op_ms = median (sorted_ms (List.map (fun r -> r.dur_ns) ops)) in
  let plain_op_ms = median (sorted_ms (List.map (fun r -> r.dur_ns) plain_ops)) in
  let block_base = cnt "block.block_instrs" +. cnt "block.interp_instrs" in
  let tlb_base = cnt "tlb.hits" +. cnt "tlb.misses" in
  let m name value unit_ = { name; value; unit_ } in
  let count name = m name (cnt name) "count" in
  let metrics =
    [
      m "build.calls" (calls "build") "count";
      m "build.ms" (Spans.total_ms tr "build") "ms";
      m "build.alloc_mb" (inst.W.tracing.W.build_bytes /. 1048576.) "MB";
      m "machine.self_ms" (self "machine") "ms";
      count "machine.steps";
      m "machine.minor_words" inst.W.tracing.W.machine_words "words";
      count "block.compiled";
      count "block.invalidated";
      count "block.dispatches";
      count "block.interp_instrs";
      m "block.hit_ratio" (ratio (cnt "block.block_instrs") block_base) "ratio";
      count "tlb.hits";
      count "tlb.misses";
      count "tlb.flushes";
      m "tlb.hit_ratio" (ratio (cnt "tlb.hits") tlb_base) "ratio";
      m "monitor.calls" (sum calls classes) "count";
      m "monitor.ms" (sum (Spans.total_ms tr) classes) "ms";
      m "monitor.self_ms" (self "monitor") "ms";
    ]
    @ List.concat_map
        (fun c -> [ m (c ^ ".calls") (calls c) "count"; m (c ^ ".ms") (Spans.total_ms tr c) "ms" ])
        classes
    @ List.map (fun (name, _) -> count name) (Layers.vfm_counters (Miralis.Vfm_stats.create ()))
    @ [
        m "policy.calls" (calls "policy") "count";
        m "policy.ms" (Spans.total_ms tr "policy") "ms";
        count "explore.switches";
        count "explore.violations";
        m "oracle.checks" (calls "oracle") "count";
        m "oracle.ms" (Spans.total_ms tr "oracle") "ms";
        count "sched.picks";
      ]
    @ List.concat_map
        (fun f ->
          [
            count (f ^ ".execs");
            m (f ^ ".ms") (Spans.total_ms tr f) "ms";
            count (f ^ ".edges");
            count (f ^ ".divergences");
          ])
        fuzz
    @ [
        m "gc.minor_words_per_op" (!minor_words /. float_of_int k) "words";
        m "gc.major_collections" (float_of_int !majors) "count";
        m "gc.heap_mb" (mb_of_words (Gc.quick_stat ()).Gc.heap_words) "MB";
        m "other.ms" (self "other") "ms";
      ]
    @ List.map (fun (l, s) -> m ("share." ^ l) s "ratio") shares
    @ [
        m "trace.op_ms" op_ms "ms";
        m "trace.untraced_op_ms" plain_op_ms "ms";
        m "trace.overhead" (ratio op_ms plain_op_ms) "ratio";
        m "trace.spans" (float_of_int (Spans.logged tr + Spans.dropped tr)) "count";
      ]
  in
  let dominant, dshare =
    List.fold_left (fun (bl, bs) (l, s) -> if s > bs then (l, s) else (bl, bs)) ("none", -1.) shares
  in
  let lines =
    [
      Printf.sprintf
        "trace %s seed %Ld: %d ops, traced op_ms %.3f / untraced %.3f = overhead %.3f; \
         dominant layer %s (%.1f%% of %.1f ms traced)"
        w.W.name seed k op_ms plain_op_ms (ratio op_ms plain_op_ms) dominant
        (100. *. dshare) traced_ms;
      "  " ^ String.concat "  "
        (List.map (fun (l, s) -> Printf.sprintf "%s %.1f ms (%.1f%%)" l (self l) (100. *. s)) shares);
      Printf.sprintf
        "  block.hit_ratio %.4f of %.0f engine-retired instrs; tlb.hit_ratio %.4f of %.0f lookups; \
         monitor %.0f calls; digest %016Lx %s untraced"
        (ratio (cnt "block.block_instrs") block_base) block_base
        (ratio (cnt "tlb.hits") tlb_base) tlb_base (sum calls classes) digest
        (if same then "=" else "<>");
    ]
    @ (if self "fuzz" = 0. then []
       else
         [
           "  "
           ^ String.concat "  "
               (List.map
                  (fun f ->
                    Printf.sprintf "%s %.1f ms (%.0f execs)" f (Spans.total_ms tr f)
                      (cnt (f ^ ".execs")))
                  fuzz);
         ])
    @ List.map (fun f -> "  FAILED op: " ^ f) (List.sort_uniq compare fails)
    @ if same then [] else [ "  FAILED check: traced digest or counters differ from untraced" ]
  in
  {
    correct = same && fails = [];
    attempted = k;
    failed = List.length (failures ops);
    metrics;
    digest;
    lines;
  }

let json r =
  let num v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun mt -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (num mt.value) mt.unit_)
          r.metrics))
