module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Emul = Geomix_linalg.Blas_emul
module Check = Geomix_linalg.Check
module Fp = Geomix_precision.Fpformat
module Rng = Geomix_util.Rng

let random_pair rng n =
  let a = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.float rng) in
  let b = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.float rng) in
  (a, b)

(* The Fig 1 model, which rounds every accumulation, and the tile kernel,
   which rounds at tile boundaries, draw the same operands from the same
   seed. *)
let per_op_err prec n seed = Emul.gemm_accuracy ~prec ~n ~rng:(Rng.create ~seed)

let boundary_err prec n seed =
  let rng = Rng.create ~seed in
  let a, b = random_pair rng n in
  let c_ref = Mat.create ~rows:n ~cols:n in
  Blas.gemm_nt ~alpha:1. a b ~beta:0. c_ref;
  let c = Mat.create ~rows:n ~cols:n in
  Emul.gemm_nt ~prec ~alpha:1. a b ~beta:0. c;
  Mat.rel_diff c ~reference:c_ref

let test_fp64_exact () =
  List.iter
    (fun err ->
      Alcotest.(check (float 0.)) "fp64 emulation is exact" 0. (err Fp.Fp64 32 1))
    [ per_op_err; boundary_err ]

let test_error_bands_per_op () =
  (* The Fig 1 accuracy ordering: FP32 ≪ TF32 ≈ FP16_32 < BF16_32 < FP16. *)
  let e prec = per_op_err prec 96 2 in
  let e32 = e Fp.Fp32
  and etf = e Fp.Tf32
  and eh32 = e Fp.Fp16_32
  and eb = e Fp.Bf16_32
  and eh = e Fp.Fp16 in
  Alcotest.(check bool) (Printf.sprintf "fp32 band (%g)" e32) true (e32 > 1e-9 && e32 < 1e-5);
  Alcotest.(check bool) "tf32 ≈ fp16_32" true (etf /. eh32 < 10. && eh32 /. etf < 10.);
  Alcotest.(check bool) "bf16_32 worse than fp16_32" true (eb > eh32);
  Alcotest.(check bool) (Printf.sprintf "fp16 band (%g)" eh) true (eh > 1e-5 && eh < 1e-1);
  Alcotest.(check bool) "fp16 worst" true (eh > eb)

let test_boundary_captures_input_quantisation () =
  (* The tile kernel must agree with the per-op model within a small
     factor: the dominant error is operand rounding, which both model. *)
  let ep = per_op_err Fp.Fp16 64 3 in
  let eb = boundary_err Fp.Fp16 64 3 in
  Alcotest.(check bool)
    (Printf.sprintf "same order of magnitude (%g vs %g)" ep eb)
    true
    (ep /. eb < 30. && eb /. ep < 30.)

let test_gemm_accuracy_helper () =
  let rng = Rng.create ~seed:4 in
  let e = Emul.gemm_accuracy ~prec:Fp.Fp32 ~n:64 ~rng in
  Alcotest.(check bool) "fp32 accuracy" true (e > 0. && e < 1e-5)

let test_syrk_emul_matches_exact_on_fp64 () =
  let rng = Rng.create ~seed:5 in
  let a = Mat.init ~rows:12 ~cols:5 (fun _ _ -> Rng.gaussian rng) in
  let c1 = Mat.create ~rows:12 ~cols:12 and c2 = Mat.create ~rows:12 ~cols:12 in
  Blas.syrk_lower ~alpha:(-1.) a ~beta:1. c1;
  Emul.syrk_lower ~prec:Fp.Fp64 ~alpha:(-1.) a ~beta:1. c2;
  Alcotest.(check (float 0.)) "identical" 0. (Mat.diff_frobenius c1 c2)

let test_syrk_emul_fp32_close () =
  let rng = Rng.create ~seed:6 in
  let a = Mat.init ~rows:24 ~cols:8 (fun _ _ -> Rng.float rng) in
  let c_ref = Mat.create ~rows:24 ~cols:24 and c = Mat.create ~rows:24 ~cols:24 in
  Blas.syrk_lower ~alpha:1. a ~beta:0. c_ref;
  Emul.syrk_lower ~prec:Fp.Fp32 ~alpha:1. a ~beta:0. c;
  let e = Mat.rel_diff c ~reference:c_ref in
  Alcotest.(check bool) (Printf.sprintf "fp32 error %g" e) true (e > 0. && e < 1e-5)

let test_trsm_emul_fp32 () =
  let rng = Rng.create ~seed:7 in
  let spd = Check.spd_random ~rng ~n:8 in
  let l = Blas.cholesky spd in
  let b_ref = Mat.init ~rows:6 ~cols:8 (fun _ _ -> Rng.gaussian rng) in
  let b = Mat.copy b_ref in
  Blas.trsm_right_lower_trans ~l b_ref;
  Emul.trsm_right_lower_trans ~prec:Fp.Fp32 ~l b;
  let e = Mat.rel_diff b ~reference:b_ref in
  Alcotest.(check bool) (Printf.sprintf "fp32 trsm error %g" e) true (e < 1e-4)

let test_potrf_emul_fp32 () =
  let rng = Rng.create ~seed:8 in
  let a = Check.spd_random ~rng ~n:24 in
  let l = Mat.copy a in
  Emul.potrf_lower ~prec:Fp.Fp32 l;
  Mat.zero_upper l;
  let r = Check.cholesky_residual ~a ~l in
  Alcotest.(check bool) (Printf.sprintf "fp32 potrf residual %g" r) true
    (r > 1e-12 && r < 1e-5)

let test_potrf_emul_rejects_indefinite () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.check_raises "still raises" (Blas.Not_positive_definite 1) (fun () ->
    Emul.potrf_lower ~prec:Fp.Fp32 a)

let prop_emul_error_bounded =
  (* n·u error bound (with slack) for the per-op emulated GEMM. *)
  QCheck.Test.make ~name:"per-op gemm error ≤ c·n·u" ~count:30
    QCheck.(pair (int_range 4 48) (oneofl [ Fp.Fp32; Fp.Fp16_32; Fp.Fp16 ]))
    (fun (n, prec) ->
      let e = per_op_err prec n (n + 17) in
      let u = Fp.scalar_unit_roundoff (Fp.input_scalar prec) in
      e <= 8. *. float_of_int n *. u)

let () =
  Alcotest.run "blas_emul"
    [
      ( "emulated kernels",
        [
          Alcotest.test_case "fp64 exact" `Quick test_fp64_exact;
          Alcotest.test_case "error bands (Fig 1)" `Quick test_error_bands_per_op;
          Alcotest.test_case "boundary vs per-op" `Quick test_boundary_captures_input_quantisation;
          Alcotest.test_case "gemm_accuracy helper" `Quick test_gemm_accuracy_helper;
          Alcotest.test_case "syrk fp64 identical" `Quick test_syrk_emul_matches_exact_on_fp64;
          Alcotest.test_case "syrk fp32 close" `Quick test_syrk_emul_fp32_close;
          Alcotest.test_case "trsm fp32" `Quick test_trsm_emul_fp32;
          Alcotest.test_case "potrf fp32" `Quick test_potrf_emul_fp32;
          Alcotest.test_case "potrf rejects indefinite" `Quick test_potrf_emul_rejects_indefinite;
          QCheck_alcotest.to_alcotest prop_emul_error_bounded;
        ] );
    ]
