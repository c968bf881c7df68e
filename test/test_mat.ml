module Mat = Geomix_linalg.Mat
module Fp = Geomix_precision.Fpformat
module Rng = Geomix_util.Rng
module Buf_pool = Geomix_linalg.Buf_pool

let test_create_zeroed () =
  let m = Mat.create ~rows:3 ~cols:2 in
  Alcotest.(check int) "rows" 3 (Mat.rows m);
  Alcotest.(check int) "cols" 2 (Mat.cols m);
  for i = 0 to 2 do
    for j = 0 to 1 do
      Alcotest.(check (float 0.)) "zero" 0. (Mat.get m i j)
    done
  done

let test_init_get_set () =
  let m = Mat.init ~rows:3 ~cols:3 (fun i j -> float_of_int ((10 * i) + j)) in
  Alcotest.(check (float 0.)) "(1,2)" 12. (Mat.get m 1 2);
  Mat.set m 1 2 99.;
  Alcotest.(check (float 0.)) "after set" 99. (Mat.get m 1 2)

let test_of_to_arrays () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check (array (array (float 0.)))) "roundtrip" a (Mat.to_arrays (Mat.of_arrays a))

let test_copy_independent () =
  let m = Mat.init ~rows:2 ~cols:2 (fun i j -> float_of_int (i + j)) in
  let c = Mat.copy m in
  Mat.set c 0 0 42.;
  Alcotest.(check (float 0.)) "original untouched" 0. (Mat.get m 0 0)

let test_identity () =
  let i3 = Mat.identity 3 in
  Alcotest.(check (float 0.)) "diag" 1. (Mat.get i3 1 1);
  Alcotest.(check (float 0.)) "off" 0. (Mat.get i3 0 2)

let test_transpose () =
  let m = Mat.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Mat.transpose m in
  Alcotest.(check int) "rows" 3 (Mat.rows t);
  Alcotest.(check (float 0.)) "(2,1)" 6. (Mat.get t 2 1)

let test_frobenius () =
  let m = Mat.of_arrays [| [| 3.; 0. |]; [| 0.; 4. |] |] in
  Alcotest.(check (float 1e-12)) "frobenius" 5. (Mat.frobenius m)

let test_scale_add () =
  let m = Mat.of_arrays [| [| 1.; 2. |] |] in
  Mat.scale m 2.;
  Mat.add_scaled m ~alpha:(-1.) (Mat.of_arrays [| [| 2.; 4. |] |]);
  Alcotest.(check (float 0.)) "zeroed" 0. (Mat.frobenius m)

let test_matvec () =
  let m = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check (array (float 1e-12))) "Ax" [| 5.; 11. |] (Mat.matvec m [| 1.; 2. |])

let test_matvec_trans () =
  let m = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check (array (float 1e-12))) "Aᵀx" [| 7.; 10. |] (Mat.matvec_trans m [| 1.; 2. |])

let test_zero_upper () =
  let m = Mat.of_arrays [| [| 1.; 9. |]; [| 2.; 3. |] |] in
  Mat.zero_upper m;
  Alcotest.(check (float 0.)) "cleared" 0. (Mat.get m 0 1);
  Alcotest.(check (float 0.)) "lower kept" 2. (Mat.get m 1 0)

let test_round_inplace () =
  let m = Mat.of_arrays [| [| 1. +. Float.ldexp 1. (-20) |] |] in
  Mat.round_inplace Fp.S_fp16 m;
  Alcotest.(check (float 0.)) "rounded to fp16 grid" 1. (Mat.get m 0 0);
  let m2 = Mat.of_arrays [| [| 0.1 |] |] in
  Mat.round_inplace Fp.S_fp64 m2;
  Alcotest.(check (float 0.)) "fp64 noop" 0.1 (Mat.get m2 0 0)

let test_rel_diff () =
  let a = Mat.of_arrays [| [| 1.; 0. |] |] and b = Mat.of_arrays [| [| 2.; 0. |] |] in
  Alcotest.(check (float 1e-12)) "rel diff" 0.5 (Mat.rel_diff a ~reference:b);
  Alcotest.(check (float 0.)) "self" 0. (Mat.rel_diff a ~reference:a)

let test_blocks () =
  let m = Mat.init ~rows:4 ~cols:4 (fun i j -> float_of_int ((i * 4) + j)) in
  let b = Mat.sub_view_copy m ~row:1 ~col:2 ~rows:2 ~cols:2 in
  Alcotest.(check (float 0.)) "block (0,0)" 6. (Mat.get b 0 0);
  let z = Mat.create ~rows:2 ~cols:2 in
  Mat.set_block m ~row:1 ~col:2 z;
  Alcotest.(check (float 0.)) "written back" 0. (Mat.get m 1 2)

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose∘transpose = id" ~count:100
    QCheck.(pair (int_range 1 20) (int_range 1 20))
    (fun (r, c) ->
      let rng = Rng.create ~seed:(r + (100 * c)) in
      let m = Mat.init ~rows:r ~cols:c (fun _ _ -> Rng.gaussian rng) in
      Mat.rel_diff (Mat.transpose (Mat.transpose m)) ~reference:m = 0.)

let prop_frobenius_triangle =
  QCheck.Test.make ~name:"‖a+b‖ ≤ ‖a‖+‖b‖" ~count:100 (QCheck.int_range 1 30)
    (fun n ->
      let rng = Rng.create ~seed:n in
      let a = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.gaussian rng) in
      let b = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.gaussian rng) in
      let s = Mat.copy a in
      Mat.add_scaled s ~alpha:1. b;
      Mat.frobenius s <= Mat.frobenius a +. Mat.frobenius b +. 1e-9)

let test_view_shares_storage () =
  let m = Mat.init ~rows:12 ~cols:1 (fun i _ -> float_of_int i) in
  let v = Mat.view m ~off:4 ~rows:2 ~cols:3 in
  Alcotest.(check (float 0.)) "(1, 2) is entry 4 + 1 + 2·2" 9. (Mat.get v 1 2);
  Mat.set v 0 1 (-1.);
  Alcotest.(check (float 0.)) "write shows through" (-1.) (Mat.get m 6 0)

let test_buf_pool_bound () =
  (* A shape keeps at most 32 free buffers: after 40 are given back, taking
     40 again allocates the 8 the pool dropped. *)
  let rows = 3 and cols = 41 in
  let taken = List.init 40 (fun _ -> Buf_pool.take ~rows ~cols) in
  List.iter Buf_pool.give taken;
  let before, bytes_before = Mat.allocations () in
  let again = List.init 40 (fun _ -> Buf_pool.take ~rows ~cols) in
  let after, bytes_after = Mat.allocations () in
  Alcotest.(check int) "matrices allocated" 8 (after - before);
  Alcotest.(check int) "bytes allocated" (8 * 8 * rows * cols) (bytes_after - bytes_before);
  List.iter Buf_pool.give again

let () =
  Alcotest.run "mat"
    [
      ( "mat",
        [
          Alcotest.test_case "create zeroed" `Quick test_create_zeroed;
          Alcotest.test_case "init/get/set" `Quick test_init_get_set;
          Alcotest.test_case "arrays roundtrip" `Quick test_of_to_arrays;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "frobenius" `Quick test_frobenius;
          Alcotest.test_case "scale/add" `Quick test_scale_add;
          Alcotest.test_case "matvec" `Quick test_matvec;
          Alcotest.test_case "matvec trans" `Quick test_matvec_trans;
          Alcotest.test_case "sym/zero upper" `Quick test_zero_upper;
          Alcotest.test_case "round inplace" `Quick test_round_inplace;
          Alcotest.test_case "rel diff" `Quick test_rel_diff;
          Alcotest.test_case "blocks" `Quick test_blocks;
          Alcotest.test_case "view shares storage" `Quick test_view_shares_storage;
          Alcotest.test_case "buffer pool bound" `Quick test_buf_pool_bound;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_transpose_involution; prop_frobenius_triangle ] );
    ]
