(* Tests for the differential-testing engine and its four families:
   determinism, bug-catching + shrinking, vector codecs and their
   malformed-input diagnostics, and the checked-in vector suite. *)

module Fuzz = Mir_fuzz
module Difftest = Mir_fuzz.Difftest
module Config = Miralis.Config

let seed = Config.default_seed

(* Same seed, same budget -> byte-identical campaign: corpus contents,
   coverage map and coverage curve. *)
let test_deterministic () =
  let run () = Fuzz.Fuzzer.run ~seed:5L ~max_execs:1500 () in
  let a = run () and b = run () in
  Alcotest.(check (list string))
    "same corpus"
    (List.map Fuzz.Fuzzer.to_jsonl a.Fuzz.Fuzzer.corpus)
    (List.map Fuzz.Fuzzer.to_jsonl b.Fuzz.Fuzzer.corpus);
  Helpers.check_bool "same coverage counts" true
    (Fuzz.Coverage.equal a.Fuzz.Fuzzer.coverage b.Fuzz.Fuzzer.coverage);
  Alcotest.(check (list (pair int int)))
    "same coverage curve" a.Fuzz.Fuzzer.curve b.Fuzz.Fuzzer.curve;
  Helpers.check_bool "found some coverage" true (a.Fuzz.Fuzzer.edges > 0)

(* Every §6.5 bug class must be caught, and the shrunk reproduction
   must be a genuine failing input no bigger than the original and
   within the advertised bound. *)
let test_catches_and_shrinks_injected_bugs () =
  List.iter
    (fun (name, bug) ->
      match
        (Fuzz.Fuzzer.run ~inject_bug:bug ~seed:42L ~max_execs:30_000 ())
          .Fuzz.Fuzzer.divergence
      with
      | None -> Alcotest.failf "%s: not caught in 30k execs" name
      | Some d ->
          let len_found = Fuzz.Input.length d.Fuzz.Fuzzer.case
          and len_min = Fuzz.Input.length d.Fuzz.Fuzzer.shrunk in
          if len_min > len_found then
            Alcotest.failf "%s: shrunk %d ops > original %d ops" name len_min
              len_found;
          if len_min > 8 then
            Alcotest.failf "%s: shrunk input still has %d ops" name len_min;
          (* the minimized input must still fail on a fresh executor *)
          let exec = Fuzz.Exec.create ~inject_bug:bug ~seed:42L () in
          Helpers.check_bool
            (name ^ ": shrunk input still diverges")
            true
            (Fuzz.Exec.diverges exec d.Fuzz.Fuzzer.shrunk);
          (* ... and must pass without the bug (it is the emulator
             that is broken, not the oracle) *)
          let clean = Fuzz.Exec.create ~seed:42L () in
          Helpers.check_bool
            (name ^ ": shrunk input agrees without the bug")
            true
            (not (Fuzz.Exec.diverges clean d.Fuzz.Fuzzer.shrunk)))
    [
      ("mpp", Config.Mpp_not_legalized);
      ("pmp-wr", Config.Pmp_w_without_r);
      ("vpmp-overrun", Config.Vpmp_overrun);
      ("irq-priority", Config.Interrupt_priority_swapped);
      ("mret-mpie", Config.Mret_skips_mpie);
    ]

(* A clean emulator survives a substantial campaign. *)
let test_no_false_positives () =
  let r = Fuzz.Fuzzer.run ~seed:7L ~max_execs:8_000 () in
  match r.Fuzz.Fuzzer.divergence with
  | None -> ()
  | Some d ->
      Alcotest.failf "clean campaign diverged: %s" d.Fuzz.Fuzzer.reason

let test_coverage_roundtrip () =
  let c = Fuzz.Coverage.create () in
  List.iter
    (fun i -> ignore (Fuzz.Coverage.add c i))
    [ 0; 0; 0; 5; 17; 17; 4093; Fuzz.Coverage.size - 1 ];
  match Fuzz.Coverage.of_string (Fuzz.Coverage.to_string c) with
  | Error msg -> Alcotest.failf "coverage parse: %s" msg
  | Ok c' ->
      Helpers.check_bool "coverage round-trips" true (Fuzz.Coverage.equal c c');
      Alcotest.(check int) "edges" (Fuzz.Coverage.edges c)
        (Fuzz.Coverage.edges c');
      Alcotest.(check int) "total" (Fuzz.Coverage.total c)
        (Fuzz.Coverage.total c')

(* A family's codec round-trips its builtin vectors and the cases of a
   short campaign (paging has no builtins, so generated cases are its
   only ones): decode . encode is the identity on the text. *)
let jsonl_roundtrip (module D : Difftest.S) =
  let generated = (D.run ~seed ~max_execs:12 ()).D.corpus in
  if generated = [] then Alcotest.failf "%s: no generated cases" D.name;
  List.iteri
    (fun i c ->
      let text = D.to_jsonl c in
      match D.decode ~file:(Printf.sprintf "%s-%d" D.name i) text with
      | Error e -> Alcotest.fail e
      | Ok c' ->
          Alcotest.(check string)
            (Printf.sprintf "%s case %d round-trips" D.name i)
            text (D.to_jsonl c'))
    (List.map snd D.builtin @ generated)

let test_jsonl_roundtrip () = List.iter jsonl_roundtrip Fuzz.Families.all

(* The built-in conformance vectors agree on a clean emulator... *)
let test_builtin_vectors_agree () =
  match Fuzz.Fuzzer.replay ~seed Fuzz.Fuzzer.builtin with
  | Error e -> Alcotest.fail e
  | Ok v ->
      List.iter
        (fun (name, reason) ->
          Alcotest.failf "vector %s diverges: %s" name reason)
        v.Difftest.failures;
      Helpers.check_bool "vectors exercise many edges" true
        (v.Difftest.edges > 10)

(* ... and the irq-priority vector pins the interrupt-priority bug. *)
let test_irq_vector_detects_priority_bug () =
  match
    Fuzz.Fuzzer.replay ~seed ~inject_bug:Config.Interrupt_priority_swapped
      Fuzz.Fuzzer.builtin
  with
  | Error e -> Alcotest.fail e
  | Ok { Difftest.failures = []; _ } ->
      Alcotest.fail "irq-priority bug not detected by vectors"
  | Ok { Difftest.failures = (name, _) :: _; _ } ->
      Alcotest.(check string) "caught by the irq vector" "irq-priority" name

(* The checked-in test/vectors/ files replay green through Difftest:
   they are the regression suite, frozen on disk. Each file is claimed
   by exactly one family, picked by its header. *)
let test_checked_in_vectors_agree () =
  let dir = Helpers.vectors_dir () in
  let headers =
    List.map (fun (module D : Difftest.S) -> D.header) Fuzz.Families.all
  in
  Alcotest.(check int)
    "headers are distinct" (List.length headers)
    (List.length (List.sort_uniq String.compare headers));
  match Difftest.replay_path Fuzz.Families.all ~seed dir with
  | Error ds -> Alcotest.fail (String.concat "\n" ds)
  | Ok verdicts ->
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
        |> List.sort String.compare
      in
      Alcotest.(check (list string))
        "every file claimed exactly once" files
        (List.sort String.compare
           (List.concat_map (fun v -> v.Difftest.vectors) verdicts));
      Alcotest.(check (list (pair string int)))
        "files per family"
        [ ("isa", 18); ("blocks", 8); ("ace", 6) ]
        (List.map
           (fun v -> (v.Difftest.family, List.length v.Difftest.vectors))
           verdicts);
      List.iter
        (fun v ->
          List.iter
            (fun (name, reason) ->
              Alcotest.failf "%s diverges: %s" name reason)
            v.Difftest.failures)
        verdicts;
      Alcotest.(check int)
        "isa vectors reach 70 edges" 70
        (List.hd verdicts).Difftest.edges

(* Malformed vectors of any family are rejected with a file:line
   diagnostic, never an exception, and nothing is replayed. *)
let test_malformed_vectors_rejected () =
  Helpers.with_temp_dir "mir_fuzz_malformed" @@ fun dir ->
  List.iter
    (fun (name, text, line) ->
      let path = Filename.concat dir (name ^ ".jsonl") in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      match Difftest.replay_path Fuzz.Families.all ~seed path with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error [ msg ] ->
          let prefix = Printf.sprintf "%s:%d: " path line in
          if not (String.starts_with ~prefix msg) then
            Alcotest.failf "%s: diagnostic %S lacks %S" name msg prefix
      | Error ds ->
          Alcotest.failf "%s: %d diagnostics" name (List.length ds))
    [
      ("empty", "", 1);
      ("unknown-header", "{\"bogus\":1}\n", 1);
      ("not-json", "\n{\"fuzz\":1,\"seed\":\"0x1\"}\nop i 0x73\n", 3);
      ( "bad-op",
        "{\"fuzz\":1,\"seed\":\"0x1\"}\n{\"op\":\"i\",\"bits\":\"zz\"}\n",
        2 );
      ( "isa-lines-under-ace",
        "{\"ace\":1,\"v\":1}\n{\"op\":\"i\",\"bits\":\"0x30200073\"}\n",
        2 );
      ( "ace-lines-under-blockdiff",
        "{\"blockdiff\":1,\"seed\":\"0x1\"}\n\
         {\"op\":\"run\",\"h\":0,\"a0\":\"0x1\",\"a1\":\"0x0\",\"a2\":\"0x0\"}\n",
        2 );
      ( "block-lines-under-isa",
        "{\"fuzz\":1,\"seed\":\"0x1\"}\n{\"op\":\"w\",\"bits\":\"0x13\"}\n",
        2 );
      ( "ace-hart-out-of-range",
        "{\"ace\":1,\"v\":1}\n\
         {\"op\":\"run\",\"h\":7,\"a0\":\"0x1\",\"a1\":\"0x0\",\"a2\":\"0x0\"}\n",
        2 );
      ( "paging-vpn-out-of-range",
        "{\"pgdiff\":1}\n{\"op\":\"sum\"}\n\
         {\"op\":\"unmap\",\"root\":0,\"vpn\":4096,\"all\":true}\n",
        3 );
      ("blocks-without-code", "{\"blockdiff\":1,\"seed\":\"0x1\"}\n", 1);
    ]

(* Corpus persistence: content-hash names, loadable, deduplicated. *)
let test_corpus_dir_roundtrip () =
  Helpers.with_temp_dir "mir_fuzz_corpus" @@ fun dir ->
  let r = Fuzz.Fuzzer.run ~seed:11L ~max_execs:500 ~corpus_dir:dir () in
  (* mutation can rediscover an input with identical content (count
     bucketing makes it "interesting" again): files dedup by hash *)
  let distinct =
    List.sort_uniq String.compare
      (List.map Fuzz.Fuzzer.to_jsonl r.Fuzz.Fuzzer.corpus)
  in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"cov-" f)
  in
  let loaded =
    List.map
      (fun f ->
        let path = Filename.concat dir f in
        match
          Fuzz.Fuzzer.decode ~file:path
            (In_channel.with_open_bin path In_channel.input_all)
        with
        | Ok c -> Fuzz.Fuzzer.to_jsonl c
        | Error e -> Alcotest.fail e)
      files
  in
  Alcotest.(check (list string))
    "one file per distinct corpus input" distinct
    (List.sort String.compare loaded);
  Helpers.check_bool "coverage map saved" true
    (Sys.file_exists (Filename.concat dir "coverage.txt"))

(* The checked-in ace vectors, picked by their [ace] header, replay
   green through the ace family's codec and policy model. *)
let test_ace_vectors_agree () =
  let v = Helpers.replay_family_vectors (module Fuzz.Acefuzz) in
  Alcotest.(check int) "ace vectors" 6 (List.length v.Difftest.vectors)

let test_ace_jsonl_roundtrip () = jsonl_roundtrip (module Fuzz.Acefuzz)

(* A short generated campaign against the clean policy stays
   divergence-free and exercises a healthy slice of the op/outcome
   space. *)
let test_ace_campaign_clean () =
  let r = Fuzz.Acefuzz.run ~seed ~max_execs:40 () in
  (match r.Fuzz.Acefuzz.divergence with
  | None -> ()
  | Some d ->
      Alcotest.failf "ace campaign diverged after %d execs: %s"
        d.Fuzz.Acefuzz.at_exec d.Fuzz.Acefuzz.reason);
  Helpers.check_bool "ace campaign covers many edges" true
    (r.Fuzz.Acefuzz.edges > 8)

let () =
  Alcotest.run "fuzz"
    [
      ( "fuzz",
        [
          Alcotest.test_case "deterministic campaigns" `Quick
            test_deterministic;
          Alcotest.test_case "catches and shrinks injected bugs" `Slow
            test_catches_and_shrinks_injected_bugs;
          Alcotest.test_case "no false positives" `Quick
            test_no_false_positives;
          Alcotest.test_case "coverage round-trip" `Quick
            test_coverage_roundtrip;
          Alcotest.test_case "input jsonl round-trip" `Quick
            test_jsonl_roundtrip;
          Alcotest.test_case "builtin vectors agree" `Quick
            test_builtin_vectors_agree;
          Alcotest.test_case "irq vector detects priority bug" `Quick
            test_irq_vector_detects_priority_bug;
          Alcotest.test_case "checked-in vectors agree" `Quick
            test_checked_in_vectors_agree;
          Alcotest.test_case "malformed vectors rejected" `Quick
            test_malformed_vectors_rejected;
          Alcotest.test_case "corpus dir round-trip" `Quick
            test_corpus_dir_roundtrip;
        ] );
      ( "ace",
        [
          Alcotest.test_case "checked-in ace vectors agree" `Quick
            test_ace_vectors_agree;
          Alcotest.test_case "ace jsonl round-trip" `Quick
            test_ace_jsonl_roundtrip;
          Alcotest.test_case "ace campaign clean" `Slow
            test_ace_campaign_clean;
        ] );
    ]
