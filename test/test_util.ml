(* Utility-layer tests: statistics, PRNG, table rendering, and the
   lines-of-code inventory. *)

module Stats = Mir_util.Stats
module Prng = Mir_util.Prng
module Tablefmt = Mir_util.Tablefmt

let test_stats_basic () =
  let s = Stats.of_list [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check int) "count" 5 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "total" 15.0 (Stats.total s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.max_value s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) (Stats.stddev s)

let test_stats_percentiles () =
  let s = Stats.of_list (List.init 101 float_of_int) in
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile s 0.);
  Alcotest.(check (float 1e-9)) "median" 50.0 (Stats.median s);
  Alcotest.(check (float 1e-9)) "p90" 90.0 (Stats.percentile s 90.);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile s 100.);
  (* interpolation between two points *)
  let s2 = Stats.of_list [ 0.; 10. ] in
  Alcotest.(check (float 1e-9)) "interpolated" 2.5 (Stats.percentile s2 25.)

let test_stats_add_after_sort () =
  let s = Stats.of_list [ 3.; 1. ] in
  ignore (Stats.median s);
  Stats.add s 2.;
  Alcotest.(check (float 1e-9)) "median after re-add" 2.0 (Stats.median s)

let test_stats_histogram () =
  let s = Stats.of_list [ 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. ] in
  let h = Stats.histogram s ~bins:2 in
  Alcotest.(check int) "two bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "all counted" 10 (c0 + c1)

let test_prng_determinism () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Helpers.check_i64 "same stream" (Prng.next a) (Prng.next b)
  done;
  let c = Prng.create ~seed:43L in
  Alcotest.(check bool) "different seed differs" true
    (Prng.next a <> Prng.next c)

let test_prng_ranges () =
  let p = Prng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Prng.int_below p 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10);
    let f = Prng.float p in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_distributions () =
  let p = Prng.create ~seed:11L in
  let n = 20000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential p ~mean:5.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "exponential mean %.2f near 5" mean)
    true
    (mean > 4.5 && mean < 5.5);
  let acc2 = ref 0.0 in
  for _ = 1 to n do
    acc2 := !acc2 +. Prng.gaussian p ~mu:10.0 ~sigma:2.0
  done;
  let mean2 = !acc2 /. float_of_int n in
  Alcotest.(check bool) "gaussian mean near 10" true
    (mean2 > 9.8 && mean2 < 10.2)

let test_prng_split_independent () =
  let p = Prng.create ~seed:1L in
  let q = Prng.split p in
  Alcotest.(check bool) "streams differ" true (Prng.next p <> Prng.next q)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let s =
    Tablefmt.render ~title:"T" ~headers:[ "a"; "b" ]
      [ [ "x"; "1" ]; [ "longer"; "22" ] ]
  in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains row" true (contains_sub s "longer");
  Alcotest.(check bool) "right-aligned numeric column" true
    (contains_sub s "| 22 |")

let test_bar_chart () =
  let c = Tablefmt.bar_chart () [ ("a", 2.0); ("bb", 1.0) ] in
  Alcotest.(check bool) "bars scale" true (contains_sub c "##");
  Alcotest.(check bool) "labels padded" true (contains_sub c "a  |")

let test_series_chart () =
  let c =
    Tablefmt.series_chart ~labels:[ "p50"; "p99" ]
      [ ("x", [ 1.0; 2.0 ]); ("y", [ 3.0 ]) ]
  in
  Alcotest.(check bool) "missing value dashed" true (contains_sub c "-")

(* Every lib/ subdirectory gets a non-empty inventory row, so the
   per-PR net LoC covers the whole tree. *)
let test_inventory_covers_lib () =
  match Mir_harness.Loc.project_root () with
  | None -> Alcotest.fail "source tree not found"
  | Some root ->
      let rows = Mir_harness.Loc.repo_inventory () in
      let libs =
        Sys.readdir (Filename.concat root "lib")
        |> Array.to_list
        |> List.filter (fun d ->
               Sys.is_directory (Filename.concat root ("lib/" ^ d)))
      in
      Alcotest.(check bool)
        "lib/ has subdirectories" true
        (List.length libs > 10);
      List.iter
        (fun d ->
          match List.assoc_opt ("lib/" ^ d) rows with
          | Some n when n > 0 -> ()
          | Some _ -> Alcotest.failf "lib/%s counts no lines" d
          | None -> Alcotest.failf "lib/%s has no inventory row" d)
        libs;
      List.iter
        (fun d ->
          Alcotest.(check bool) (d ^ " has a row") true
            (List.mem_assoc d rows))
        [ "bin"; "bench"; "examples"; "test" ]

(* Table 1 counts every monitor module: its total is the lib/core row
   of the inventory. *)
let test_table1_counts_core () =
  Alcotest.(check (option int))
    "Table 1 total = lib/core"
    (List.assoc_opt "lib/core" (Mir_harness.Loc.repo_inventory ()))
    (List.assoc_opt "Total" (Mir_harness.Loc.table1 ()))

let () =
  Alcotest.run "util"
    [
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basic;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "add after sort" `Quick test_stats_add_after_sort;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "distributions" `Quick test_prng_distributions;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
          Alcotest.test_case "series chart" `Quick test_series_chart;
        ] );
      ( "loc",
        [
          Alcotest.test_case "inventory covers every lib/ directory" `Quick
            test_inventory_covers_lib;
          Alcotest.test_case "table 1 counts every lib/core module" `Quick
            test_table1_counts_core;
        ] );
    ]
