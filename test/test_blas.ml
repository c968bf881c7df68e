module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Check = Geomix_linalg.Check
module Rng = Geomix_util.Rng

let test_gemm_nt_small () =
  (* C = A·Bᵀ with A=[[1,2],[3,4]], B=[[5,6],[7,8]] ⇒ [[17,23],[39,53]]. *)
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.create ~rows:2 ~cols:2 in
  Blas.gemm_nt ~alpha:1. a b ~beta:0. c;
  Alcotest.(check (array (array (float 1e-12)))) "A·Bᵀ"
    [| [| 17.; 23. |]; [| 39.; 53. |] |]
    (Mat.to_arrays c)

let test_gemm_alpha_beta () =
  let a = Mat.identity 2 and b = Mat.identity 2 in
  let c = Mat.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  Blas.gemm_nt ~alpha:2. a b ~beta:3. c;
  Alcotest.(check (float 1e-12)) "diag" 5. (Mat.get c 0 0);
  Alcotest.(check (float 1e-12)) "off" 3. (Mat.get c 0 1)

let test_syrk_lower () =
  let rng = Rng.create ~seed:11 in
  let a = Mat.init ~rows:5 ~cols:3 (fun _ _ -> Rng.gaussian rng) in
  let c = Mat.create ~rows:5 ~cols:5 in
  Blas.syrk_lower ~alpha:1. a ~beta:0. c;
  let full = Mat.create ~rows:5 ~cols:5 in
  Blas.gemm_nt ~alpha:1. a a ~beta:0. full;
  for j = 0 to 4 do
    for i = j to 4 do
      Alcotest.(check (float 1e-12)) "lower matches AAᵀ" (Mat.get full i j) (Mat.get c i j)
    done;
    for i = 0 to j - 1 do
      Alcotest.(check (float 0.)) "upper untouched" 0. (Mat.get c i j)
    done
  done

let test_potrf_identity () =
  let a = Mat.identity 4 in
  Blas.potrf_lower a;
  Alcotest.(check (float 1e-12)) "L = I" 0. (Mat.rel_diff a ~reference:(Mat.identity 4))

let test_potrf_known () =
  (* [[4,2],[2,5]] = [[2,0],[1,2]]·[[2,1],[0,2]]. *)
  let a = Mat.of_arrays [| [| 4.; 2. |]; [| 2.; 5. |] |] in
  Blas.potrf_lower a;
  Alcotest.(check (float 1e-12)) "L00" 2. (Mat.get a 0 0);
  Alcotest.(check (float 1e-12)) "L10" 1. (Mat.get a 1 0);
  Alcotest.(check (float 1e-12)) "L11" 2. (Mat.get a 1 1)

let test_potrf_residual_random () =
  let rng = Rng.create ~seed:13 in
  List.iter
    (fun n ->
      let a = Check.spd_random ~rng ~n in
      let l = Blas.cholesky a in
      Alcotest.(check bool)
        (Printf.sprintf "residual n=%d" n)
        true
        (Check.cholesky_residual ~a ~l < 1e-13))
    [ 1; 2; 5; 17; 64 ]

let test_potrf_rejects_indefinite () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  (* eigenvalues 3, −1 *)
  Alcotest.check_raises "not SPD" (Blas.Not_positive_definite 1) (fun () ->
    Blas.potrf_lower a)

let test_trsm () =
  let rng = Rng.create ~seed:17 in
  let spd = Check.spd_random ~rng ~n:6 in
  let l = Blas.cholesky spd in
  let x_true = Mat.init ~rows:4 ~cols:6 (fun _ _ -> Rng.gaussian rng) in
  (* B = X·Lᵀ, then solve back. *)
  let b = Mat.create ~rows:4 ~cols:6 in
  Blas.gemm_nt ~alpha:1. x_true l ~beta:0. b;
  Blas.trsm_right_lower_trans ~l b;
  Alcotest.(check bool) "recovered X" true (Mat.rel_diff b ~reference:x_true < 1e-12)

let test_trsm_left_lower () =
  let rng = Rng.create ~seed:18 in
  let spd = Check.spd_random ~rng ~n:7 in
  let l = Blas.cholesky spd in
  let x_true = Mat.init ~rows:7 ~cols:4 (fun _ _ -> Rng.gaussian rng) in
  (* B = L·X, solve back in place. *)
  let b = Mat.create ~rows:7 ~cols:4 in
  Blas.gemm_nt ~alpha:1. l (Mat.transpose x_true) ~beta:0. b;
  Blas.trsm_left_lower_notrans ~l b;
  Alcotest.(check bool) "recovered X" true (Mat.rel_diff b ~reference:x_true < 1e-12)

let test_trsm_left_right_consistent () =
  (* Solving X·Lᵀ = B row-wise equals solving L·Xᵀ = Bᵀ column-wise. *)
  let rng = Rng.create ~seed:21 in
  let spd = Check.spd_random ~rng ~n:6 in
  let l = Blas.cholesky spd in
  let b = Mat.init ~rows:5 ~cols:6 (fun _ _ -> Rng.gaussian rng) in
  let right = Mat.copy b in
  Blas.trsm_right_lower_trans ~l right;
  let left = Mat.transpose b in
  Blas.trsm_left_lower_notrans ~l left;
  Alcotest.(check (float 1e-12)) "consistent" 0.
    (Mat.rel_diff (Mat.transpose left) ~reference:right)

let test_trsv_roundtrip () =
  let rng = Rng.create ~seed:19 in
  let a = Check.spd_random ~rng ~n:12 in
  let l = Blas.cholesky a in
  let b = Array.init 12 (fun i -> cos (float_of_int i)) in
  let y = Blas.trsv_lower ~l b in
  let x = Blas.trsv_lower_trans ~l y in
  Alcotest.(check bool) "A·x = b" true (Check.solve_residual ~a ~x ~b < 1e-12)

let test_log_det () =
  let a = Mat.of_arrays [| [| 4.; 0. |]; [| 0.; 9. |] |] in
  let l = Blas.cholesky a in
  Alcotest.(check (float 1e-12)) "log det" (log 36.) (Blas.log_det_from_chol l)

(* --- Direct-buffer kernels vs the plain formulation ---------------------- *)

(* The tile-update kernels written with [Mat.get]/[Mat.set] in the loop
   order and operation order [Blas] promises; the kernels must match them
   bitwise, skips included. *)
let naive_gemm_nt ~alpha a b ~beta c =
  let m = Mat.rows a and k = Mat.cols a and n = Mat.rows b in
  if beta <> 1. then
    for j = 0 to n - 1 do
      for i = 0 to m - 1 do
        Mat.set c i j (beta *. Mat.get c i j)
      done
    done;
  for j = 0 to n - 1 do
    for p = 0 to k - 1 do
      let bjp = alpha *. Mat.get b j p in
      if bjp <> 0. then
        for i = 0 to m - 1 do
          Mat.set c i j (Mat.get c i j +. (Mat.get a i p *. bjp))
        done
    done
  done

let naive_syrk_lower ~alpha a ~beta c =
  let n = Mat.rows a and k = Mat.cols a in
  if beta <> 1. then
    for j = 0 to n - 1 do
      for i = j to n - 1 do
        Mat.set c i j (beta *. Mat.get c i j)
      done
    done;
  for j = 0 to n - 1 do
    for p = 0 to k - 1 do
      let ajp = alpha *. Mat.get a j p in
      if ajp <> 0. then
        for i = j to n - 1 do
          Mat.set c i j (Mat.get c i j +. (Mat.get a i p *. ajp))
        done
    done
  done

let naive_trsm_right_lower_trans ~l b =
  let n = Mat.cols b and m = Mat.rows b in
  for j = 0 to n - 1 do
    for p = 0 to j - 1 do
      let ljp = Mat.get l j p in
      if ljp <> 0. then
        for i = 0 to m - 1 do
          Mat.set b i j (Mat.get b i j -. (Mat.get b i p *. ljp))
        done
    done;
    let d = Mat.get l j j in
    for i = 0 to m - 1 do
      Mat.set b i j (Mat.get b i j /. d)
    done
  done

let same_bits what x y =
  let rows = Mat.rows x and cols = Mat.cols x in
  for j = 0 to cols - 1 do
    for i = 0 to rows - 1 do
      let bx = Int64.bits_of_float (Mat.get x i j) and by = Int64.bits_of_float (Mat.get y i j) in
      if not (Int64.equal bx by) then
        Alcotest.failf "%s: (%d,%d) got %h, want %h" what i j (Mat.get x i j) (Mat.get y i j)
    done
  done

let gaussian rng ~rows ~cols = Mat.init ~rows ~cols (fun _ _ -> Rng.gaussian rng)

let specials = [| infinity; neg_infinity; nan |]

(* Plant the cases the [<> 0.] skips decide: column [p] of [a] holds
   ±inf/NaN, so an update that multiplied it by a zero would turn NaN; the
   matching multiplier entries are zero.  One output column gets no update
   at all and holds a −0.0, which scaling and skipping must keep. *)
let test_kernels_bitwise () =
  let rng = Rng.create ~seed:31 in
  List.iter
    (fun (m, n) ->
      List.iter
        (fun alpha ->
          List.iter
            (fun beta ->
              let what kernel = Printf.sprintf "%s %dx%d alpha=%g beta=%g" kernel m n alpha beta in
              (* GEMM: C (m×n) += A (m×k) · B (n×k)ᵀ with k = n. *)
              let k = n in
              let a = gaussian rng ~rows:m ~cols:k and b = gaussian rng ~rows:n ~cols:k in
              let p = k / 2 in
              for i = 0 to m - 1 do
                Mat.set a i p specials.(i mod 3)
              done;
              for j = 0 to n - 1 do
                Mat.set b j p 0.
              done;
              for q = 0 to k - 1 do
                Mat.set b (n - 1) q 0.
              done;
              let c = gaussian rng ~rows:m ~cols:n in
              Mat.set c 0 (n - 1) (-0.);
              let c' = Mat.copy c in
              Blas.gemm_nt ~alpha a b ~beta c;
              naive_gemm_nt ~alpha a b ~beta c';
              same_bits (what "gemm_nt") c c';
              (* SYRK: C (m×m) += A (m×k) · Aᵀ, lower triangle.  In column p
                 the first rows are zero and the rest ±inf/NaN, so every
                 column j < zeros of C skips p; row 0 is zero, so column 0
                 of C is only scaled. *)
              let a = gaussian rng ~rows:m ~cols:k in
              let zeros = (m + 1) / 2 in
              for i = 0 to m - 1 do
                Mat.set a i p (if i < zeros then 0. else specials.(i mod 3))
              done;
              for q = 0 to k - 1 do
                Mat.set a 0 q 0.
              done;
              let c = gaussian rng ~rows:m ~cols:m in
              Mat.set c (m - 1) 0 (-0.);
              let c' = Mat.copy c in
              Blas.syrk_lower ~alpha a ~beta c;
              naive_syrk_lower ~alpha a ~beta c';
              same_bits (what "syrk_lower") c c';
              (* TRSM: X·Lᵀ = B with B (m×n), L (n×n) lower with L(j, p) = 0
                 for every j > p, so column p of B (±inf/NaN) never reaches
                 the other columns.  Column 0 is only divided. *)
              let l = Blas.cholesky (Check.spd_random ~rng ~n) in
              for j = p + 1 to n - 1 do
                Mat.set l j p 0.
              done;
              let x = gaussian rng ~rows:m ~cols:n in
              for i = 0 to m - 1 do
                Mat.set x i p specials.(i mod 3)
              done;
              Mat.set x 0 0 (-0.);
              Mat.scale x alpha;
              let x' = Mat.copy x in
              Blas.trsm_right_lower_trans ~l x;
              naive_trsm_right_lower_trans ~l x';
              same_bits (what "trsm_right_lower_trans") x x')
            [ 0.; 1.; 2. ])
        [ -1.; 0.5 ])
    [ (7, 5); (5, 7); (13, 64); (64, 13); (64, 64) ]

(* With [-opaque], a cross-module accessor in a hot loop boxes a float per
   access.  The kernels and the buffer rounding must allocate only a small
   constant amount per call, independent of the tile size. *)
let test_kernels_allocation_free () =
  let rng = Rng.create ~seed:37 in
  let n = 64 in
  let a = gaussian rng ~rows:n ~cols:n and b = gaussian rng ~rows:n ~cols:n in
  let c = gaussian rng ~rows:n ~cols:n in
  let l = Blas.cholesky (Check.spd_random ~rng ~n) in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let check what f =
    f ();
    let w = words f in
    if w > 64. then Alcotest.failf "%s allocated %.0f minor words on a %dx%d tile" what w n n
  in
  check "gemm_nt" (fun () -> Blas.gemm_nt ~alpha:(-1.) a b ~beta:0.5 c);
  check "syrk_lower" (fun () -> Blas.syrk_lower ~alpha:(-1.) a ~beta:0.5 c);
  check "trsm_right_lower_trans" (fun () -> Blas.trsm_right_lower_trans ~l c);
  check "round_inplace fp32" (fun () -> Mat.round_inplace Geomix_precision.Fpformat.S_fp32 c)

let prop_cholesky_roundtrip =
  QCheck.Test.make ~name:"L·Lᵀ reconstructs SPD input" ~count:60 (QCheck.int_range 1 40)
    (fun n ->
      let rng = Rng.create ~seed:(n * 7) in
      let a = Check.spd_random ~rng ~n in
      let l = Blas.cholesky a in
      Check.cholesky_residual ~a ~l < 1e-12)

let prop_gemm_linearity =
  QCheck.Test.make ~name:"gemm linear in alpha" ~count:60
    QCheck.(pair (int_range 1 12) (float_range (-3.) 3.))
    (fun (n, alpha) ->
      let rng = Rng.create ~seed:n in
      let a = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.gaussian rng) in
      let b = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.gaussian rng) in
      let c1 = Mat.create ~rows:n ~cols:n in
      Blas.gemm_nt ~alpha a b ~beta:0. c1;
      let c2 = Mat.create ~rows:n ~cols:n in
      Blas.gemm_nt ~alpha:1. a b ~beta:0. c2;
      Mat.scale c2 alpha;
      Mat.rel_diff c1 ~reference:c2 < 1e-12 || Mat.frobenius c2 = 0.)

let () =
  Alcotest.run "blas"
    [
      ( "kernels",
        [
          Alcotest.test_case "gemm_nt small" `Quick test_gemm_nt_small;
          Alcotest.test_case "alpha/beta" `Quick test_gemm_alpha_beta;
          Alcotest.test_case "syrk lower" `Quick test_syrk_lower;
          Alcotest.test_case "potrf identity" `Quick test_potrf_identity;
          Alcotest.test_case "potrf known 2x2" `Quick test_potrf_known;
          Alcotest.test_case "potrf residual" `Quick test_potrf_residual_random;
          Alcotest.test_case "potrf rejects indefinite" `Quick test_potrf_rejects_indefinite;
          Alcotest.test_case "trsm right lower trans" `Quick test_trsm;
          Alcotest.test_case "trsm left lower" `Quick test_trsm_left_lower;
          Alcotest.test_case "trsm left/right consistent" `Quick test_trsm_left_right_consistent;
          Alcotest.test_case "trsv roundtrip" `Quick test_trsv_roundtrip;
          Alcotest.test_case "log det" `Quick test_log_det;
          Alcotest.test_case "tile kernels = plain loops bitwise" `Quick test_kernels_bitwise;
          Alcotest.test_case "tile kernels allocation-free" `Quick test_kernels_allocation_free;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_cholesky_roundtrip; prop_gemm_linearity ] );
    ]
