open Bench_harness
module J = Geomix_obs.Jsonlite

(* {1 Quantiles and the tail rule} *)

let test_beyond () =
  Alcotest.(check int) "p90 of 100" 10 (Quantile.beyond ~n:100 0.9);
  Alcotest.(check int) "p99 of 1000" 10 (Quantile.beyond ~n:1000 0.99);
  Alcotest.(check int) "p90 of 61" 6 (Quantile.beyond ~n:61 0.9);
  Alcotest.(check int) "empty" 0 (Quantile.beyond ~n:0 0.5)

let test_tail_percentile () =
  let tp = Alcotest.(option (float 0.)) in
  Alcotest.check tp "19 samples: not even the median" None (Quantile.tail_percentile 19);
  Alcotest.check tp "20 samples: the median" (Some 0.5) (Quantile.tail_percentile 20);
  Alcotest.check tp "61 samples: p80" (Some 0.8) (Quantile.tail_percentile 61);
  Alcotest.check tp "100 samples: p90" (Some 0.9) (Quantile.tail_percentile 100);
  Alcotest.check tp "1000 samples: p99" (Some 0.99) (Quantile.tail_percentile 1000);
  Alcotest.check tp "10000 samples: p99.9" (Some 0.999) (Quantile.tail_percentile 10000)

let test_quantiles () =
  let xs = [| 4.; 1.; 3.; 2.; 5. |] in
  Alcotest.(check (float 1e-12)) "median" 3. (Quantile.median xs);
  Alcotest.(check (float 1e-12)) "interpolated p90" 4.6 (Quantile.quantile xs 0.9);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Quantile.median [||]))

(* {1 Verdicts} *)

let verdict =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Verdict.name v)) ( = )

let decide ?(better = Spec.Lower) ?(bound = Some 0.1) parent change =
  (Verdict.decide ~better ~bound ~parent:(Array.of_list parent) ~change:(Array.of_list change))
    .Verdict.verdict

let around c = List.init 10 (fun i -> c +. (0.01 *. float_of_int (i mod 3)))

let test_improved () =
  Alcotest.check verdict "every pair faster" Verdict.Improved (decide (around 10.) (around 9.));
  Alcotest.check verdict "higher is better" Verdict.Improved
    (decide ~better:Spec.Higher (around 9.) (around 10.))

let test_too_few_pairs () =
  let first k l = List.filteri (fun i _ -> i < k) l in
  Alcotest.check verdict "9 pairs, all won" Verdict.Within_bound
    (decide (first 9 (around 10.)) (first 9 (around 9.)))

let test_not_enough_wins () =
  (* 8 of 10 pairs won: a 20% gain on the median is no claim. *)
  let parent = around 10. in
  let change = List.mapi (fun i p -> if i < 8 then p -. 2. else p +. 0.5) parent in
  Alcotest.check verdict "8/10" Verdict.Within_bound (decide parent change)

let test_gain_within_noise () =
  (* Every pair won, but by less than the parent's own quartile spread. *)
  let parent = [ 10.; 10.4; 10.8; 10.; 10.4; 10.8; 10.; 10.4; 10.8; 10. ] in
  let change = List.map (fun p -> p -. 0.05) parent in
  Alcotest.check verdict "inside the IQR" Verdict.Within_bound (decide parent change)

let test_ties_do_not_win () =
  Alcotest.check verdict "identical" Verdict.Within_bound (decide (around 10.) (around 10.))

let test_regressed () =
  Alcotest.check verdict "20% slower" Verdict.Regressed (decide (around 10.) (around 12.));
  Alcotest.check verdict "5% slower" Verdict.Within_bound (decide (around 10.) (around 10.5));
  Alcotest.check verdict "20% less throughput" Verdict.Regressed
    (decide ~better:Spec.Higher (around 10.) (around 8.))

let test_unresolved () =
  let wide = [ 8.; 12.; 9.; 11.; 8.; 12.; 9.; 11.; 10.; 10. ] in
  Alcotest.check verdict "spread wider than bound" Verdict.Unresolved
    (decide wide (List.rev wide));
  Alcotest.check verdict "no bound" Verdict.Unresolved
    (decide ~bound:None (around 10.) (around 12.))

let test_wide_but_separated () =
  (* Parent spread is wider than the bound, but every change run is worse
     than every parent run: the regression is resolved. *)
  let parent = [ 8.; 12.; 9.; 11.; 8.; 12.; 9.; 11.; 10.; 10. ] in
  Alcotest.check verdict "all worse" Verdict.Regressed
    (decide parent (List.map (fun p -> p +. 10.) parent))

let test_counts () =
  let d =
    Verdict.decide ~better:Spec.Lower ~bound:(Some 0.1) ~parent:[| 10.; 10.; 10. |]
      ~change:[| 9.; 10.; 11.; 9. |]
  in
  Alcotest.(check int) "pairs use the shorter side" 3 d.Verdict.pairs;
  Alcotest.(check int) "wins" 1 d.Verdict.wins;
  Alcotest.check_raises "no runs" (Invalid_argument "Verdict.decide: no runs") (fun () ->
      ignore (Verdict.decide ~better:Spec.Lower ~bound:None ~parent:[||] ~change:[| 1. |]))

(* {1 BENCHMARK.json validation} *)

let metric ?bound name unit_ better =
  J.Obj
    ([ ("name", J.Str name); ("unit", J.Str unit_); ("better", J.Str better) ]
    @ match bound with Some b -> [ ("bound", J.Num b) ] | None -> [])

let spec ?(command = [ "dune"; "exec"; "./benchmark/main.exe" ]) ?(paths = [ "benchmark" ])
    ?(run_seconds = 20.) ?(workloads = [ ("a", "why a"); ("b", "why b") ])
    ?(e2e = [ metric ~bound:0.25 "setup_s" "s" "lower" ])
    ?(layers = [ metric "x.y_ms" "ms" "lower" ]) ?(extra = []) () =
  J.Obj
    ([ ("command", J.Arr (List.map (fun s -> J.Str s) command));
       ("paths", J.Arr (List.map (fun s -> J.Str s) paths));
       ("run_seconds", J.Num run_seconds);
       ( "workloads",
         J.Arr
           (List.map (fun (n, w) -> J.Obj [ ("name", J.Str n); ("why", J.Str w) ]) workloads) );
       ("end_to_end", J.Arr e2e);
       ("per_layer", J.Arr layers) ]
    @ extra)

let accepts name j =
  match Spec.of_json j with
  | Ok _ -> ()
  | Error es -> Alcotest.failf "%s: rejected: %s" name (String.concat "; " es)

let rejects name j =
  match Spec.of_json j with
  | Ok _ -> Alcotest.failf "%s: accepted" name
  | Error _ -> ()

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Spec.valid_name n))
    [ "latency_p50_ms"; "core.tile_frac.fp16_32"; "9lives"; "a-b"; String.make 64 'x' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (Spec.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "é"; String.make 65 'x' ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (Spec.valid_unit u))
    [ "ms"; "ops/s"; "%"; "GFLOP/s"; "1/s"; String.make 16 'u' ];
  List.iter
    (fun u -> Alcotest.(check bool) (Printf.sprintf "%S" u) false (Spec.valid_unit u))
    [ ""; "m s"; "µs"; String.make 17 'u' ]

let test_caps () =
  let e2e k =
    metric ~bound:0.25 "setup_s" "s" "lower"
    :: List.init k (fun i -> metric ~bound:0.1 (Printf.sprintf "e%d" i) "ms" "lower")
  in
  let layers k = List.init k (fun i -> metric (Printf.sprintf "l%d" i) "ms" "lower") in
  accepts "16 end-to-end" (spec ~e2e:(e2e 15) ());
  rejects "17 end-to-end" (spec ~e2e:(e2e 16) ());
  accepts "128 per-layer" (spec ~layers:(layers 128) ());
  rejects "129 per-layer" (spec ~layers:(layers 129) ());
  rejects "no per-layer" (spec ~layers:[] ());
  rejects "one workload" (spec ~workloads:[ ("a", "w") ] ());
  rejects "nine workloads"
    (spec ~workloads:(List.init 9 (fun i -> (Printf.sprintf "w%d" i, "w"))) ());
  rejects "run_seconds 61" (spec ~run_seconds:61. ());
  rejects "run_seconds 2.5" (spec ~run_seconds:2.5 ())

let test_contract () =
  accepts "minimal" (spec ());
  rejects "no setup_s" (spec ~e2e:[ metric ~bound:0.1 "latency_ms" "ms" "lower" ] ());
  rejects "setup_s higher" (spec ~e2e:[ metric ~bound:0.25 "setup_s" "s" "higher" ] ());
  rejects "bound over 0.25"
    (spec
       ~e2e:[ metric ~bound:0.25 "setup_s" "s" "lower"; metric ~bound:0.3 "l" "ms" "lower" ]
       ());
  rejects "per-layer with a bound" (spec ~layers:[ metric ~bound:0.1 "x" "ms" "lower" ] ());
  rejects "bad direction" (spec ~layers:[ metric "x" "ms" "down" ] ());
  rejects "bad metric name" (spec ~layers:[ metric "_x" "ms" "lower" ] ());
  rejects "bad unit" (spec ~layers:[ metric "x" "milli seconds" "lower" ] ());
  rejects "duplicate name" (spec ~layers:[ metric "a" "ms" "lower" ] ());
  rejects "extra key" (spec ~extra:[ ("traced_command", J.Arr []) ] ());
  rejects "two-line why" (spec ~workloads:[ ("a", "one\ntwo"); ("b", "w") ] ());
  rejects "long why" (spec ~workloads:[ ("a", String.make 201 'w'); ("b", "w") ] ());
  rejects "absolute command" (spec ~command:[ "/usr/bin/python3" ] ());
  rejects "command leaves the repo" (spec ~command:[ "bash"; "../run.sh" ] ());
  rejects "path leaves the repo" (spec ~paths:[ "../benchmark" ] ());
  rejects "empty paths" (spec ~paths:[] ())

let test_size_cap () =
  match Spec.of_string (String.make (65 * 1024) ' ') with
  | Ok _ -> Alcotest.fail "accepted 65 KiB"
  | Error [ e ] -> Alcotest.(check bool) e true (String.length e > 0)
  | Error _ -> Alcotest.fail "expected one error"

let test_repository_spec () =
  match Spec.load "../../BENCHMARK.json" with
  | Ok s ->
    Alcotest.(check int) "four workloads" 4 (List.length s.Spec.workloads);
    Alcotest.(check bool) "setup_s declared" true
      (List.exists (fun (m : Spec.metric) -> m.Spec.name = "setup_s") s.Spec.end_to_end)
  | Error es -> Alcotest.failf "BENCHMARK.json: %s" (String.concat "; " es)

(* {1 compare} *)

(* One result file per workload directly in [dir]: one run per side. *)
let side dir ~failed =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  List.iter
    (fun w ->
      Out_channel.with_open_bin (Filename.concat dir (w ^ ".json")) (fun oc ->
          Printf.fprintf oc
            {|{"header": {}, "result": {"correct": %b, "attempted": 10, "failed": %d, "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}}|}
            (failed = 0) failed))
    [ "a"; "b" ];
  dir

let test_compare_failures () =
  let s =
    match Spec.of_json (spec ()) with
    | Ok s -> s
    | Error es -> Alcotest.failf "spec: %s" (String.concat "; " es)
  in
  let parent = side "compare-parent" ~failed:0 in
  Alcotest.(check int) "no new failures" 0
    (Ab.compare s ~parent ~change:(side "compare-same" ~failed:0));
  Alcotest.(check int) "more failures regress" 1
    (Ab.compare s ~parent ~change:(side "compare-failing" ~failed:2))

let () =
  Alcotest.run "benchmark harness"
    [
      ( "quantile",
        [ Alcotest.test_case "samples beyond" `Quick test_beyond;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "quantiles" `Quick test_quantiles ] );
      ( "verdict",
        [ Alcotest.test_case "improved" `Quick test_improved;
          Alcotest.test_case "9/10 wins needed" `Quick test_not_enough_wins;
          Alcotest.test_case "10 pairs needed" `Quick test_too_few_pairs;
          Alcotest.test_case "gain inside parent IQR" `Quick test_gain_within_noise;
          Alcotest.test_case "ties" `Quick test_ties_do_not_win;
          Alcotest.test_case "regressed" `Quick test_regressed;
          Alcotest.test_case "unresolved" `Quick test_unresolved;
          Alcotest.test_case "wide but separated" `Quick test_wide_but_separated;
          Alcotest.test_case "pair counting" `Quick test_counts;
          Alcotest.test_case "failures regress" `Quick test_compare_failures ] );
      ( "spec",
        [ Alcotest.test_case "names and units" `Quick test_names;
          Alcotest.test_case "caps" `Quick test_caps;
          Alcotest.test_case "contract" `Quick test_contract;
          Alcotest.test_case "64 KiB" `Quick test_size_cap;
          Alcotest.test_case "repository BENCHMARK.json" `Quick test_repository_spec ] );
    ]
