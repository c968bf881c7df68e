module Stats = Geomix_util.Stats

let feq ?(eps = 1e-12) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs b)

let check_f name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g vs %g" name expected actual) true
    (feq expected actual)

let test_mean () = check_f "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_variance () =
  check_f "variance" 3.7 (Stats.variance [| 1.; 2.; 3.; 4.; 6. |]);
  check_f "singleton variance" 0. (Stats.variance [| 5. |])

let test_min_max () =
  let f = Stats.five_number [| 3.; -1.; 7.; 2. |] in
  check_f "min" (-1.) f.Stats.low;
  check_f "max" 7. f.Stats.high

let test_median_odd () = check_f "median odd" 3. (Stats.median [| 5.; 1.; 3. |])
let test_median_even () = check_f "median even" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |])

let test_quantile_endpoints () =
  let xs = [| 10.; 20.; 30. |] in
  check_f "q0" 10. (Stats.quantile xs 0.);
  check_f "q1" 30. (Stats.quantile xs 1.)

let test_quantile_interpolation () =
  (* Type-7: q(0.25) of [1..5] = 2. *)
  check_f "q0.25" 2. (Stats.quantile [| 1.; 2.; 3.; 4.; 5. |] 0.25);
  check_f "q0.1 of pair" 1.1 (Stats.quantile [| 1.; 2. |] 0.1)

let test_quantile_does_not_mutate () =
  let xs = [| 3.; 1.; 2. |] in
  ignore (Stats.quantile xs 0.5);
  Alcotest.(check (array (float 0.))) "unchanged" [| 3.; 1.; 2. |] xs

let test_five_number () =
  let f = Stats.five_number [| 1.; 2.; 3.; 4.; 5. |] in
  check_f "low" 1. f.Stats.low;
  check_f "q1" 2. f.Stats.q1;
  check_f "med" 3. f.Stats.med;
  check_f "q3" 4. f.Stats.q3;
  check_f "high" 5. f.Stats.high

let test_histogram () =
  let h = Stats.histogram ~bins:2 [| 0.; 0.1; 0.9; 1. |] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "counts total" 4 (c0 + c1);
  Alcotest.(check int) "low bin" 2 c0

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 30) (float_range (-100.) 100.)) (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (xs, (p1, p2)) ->
      let xs = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.quantile xs lo <= Stats.quantile xs hi +. 1e-9)

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let xs = Array.of_list xs in
      let f = Stats.five_number xs in
      let m = Stats.mean xs in
      m >= f.Stats.low -. 1e-6 && m <= f.Stats.high +. 1e-6)

let prop_variance_nonneg =
  QCheck.Test.make ~name:"variance non-negative" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1e3) 1e3))
    (fun xs -> Stats.variance (Array.of_list xs) >= 0.)

let () =
  Alcotest.run "stats"
    [
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "variance" `Quick test_variance;
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "quantile endpoints" `Quick test_quantile_endpoints;
          Alcotest.test_case "quantile interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "quantile pure" `Quick test_quantile_does_not_mutate;
          Alcotest.test_case "five number summary" `Quick test_five_number;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_quantile_monotone; prop_mean_bounds; prop_variance_nonneg ] );
    ]
