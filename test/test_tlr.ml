module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Factor = Geomix_linalg.Factor
module Check = Geomix_linalg.Check
module Tiled = Geomix_tile.Tiled
module Lowrank = Geomix_tlr.Lowrank
module Tlr = Geomix_tlr.Tlr
module Pm = Geomix_core.Precision_map
module Fp = Geomix_precision.Fpformat
module Rng = Geomix_util.Rng
module Locations = Geomix_geostat.Locations
module Covariance = Geomix_geostat.Covariance

(* --- Factor: QR and SVD primitives --- *)

let test_qr_reconstructs () =
  let rng = Rng.create ~seed:1 in
  List.iter
    (fun (m, k) ->
      let a = Mat.init ~rows:m ~cols:k (fun _ _ -> Rng.gaussian rng) in
      let q, r = Factor.qr_thin a in
      let qr = Mat.create ~rows:m ~cols:k in
      Blas.gemm_nt ~alpha:1. q (Mat.transpose r) ~beta:0. qr;
      Alcotest.(check bool) (Printf.sprintf "QR=A (%dx%d)" m k) true
        (Mat.rel_diff qr ~reference:a < 1e-12);
      (* QᵀQ = I *)
      let qtq = Mat.create ~rows:k ~cols:k in
      Blas.gemm_nt ~alpha:1. (Mat.transpose q) (Mat.transpose q) ~beta:0. qtq;
      Alcotest.(check bool) "orthonormal" true
        (Mat.rel_diff qtq ~reference:(Mat.identity k) < 1e-12))
    [ (5, 5); (12, 4); (30, 7); (8, 1) ]

let test_qr_r_upper_triangular () =
  let rng = Rng.create ~seed:2 in
  let a = Mat.init ~rows:10 ~cols:5 (fun _ _ -> Rng.gaussian rng) in
  let _, r = Factor.qr_thin a in
  for j = 0 to 4 do
    for i = j + 1 to 4 do
      Alcotest.(check (float 0.)) "strictly lower zero" 0. (Mat.get r i j)
    done
  done

let test_svd_reconstructs () =
  let rng = Rng.create ~seed:3 in
  List.iter
    (fun (m, n) ->
      let a = Mat.init ~rows:m ~cols:n (fun _ _ -> Rng.gaussian rng) in
      let u, sigma, v = Factor.svd_jacobi a in
      (* A = U diag(σ) Vᵀ *)
      let us = Mat.copy u in
      for j = 0 to n - 1 do
        for i = 0 to m - 1 do
          Mat.unsafe_set us i j (Mat.unsafe_get us i j *. sigma.(j))
        done
      done;
      let rec_a = Mat.create ~rows:m ~cols:n in
      Blas.gemm_nt ~alpha:1. us v ~beta:0. rec_a;
      Alcotest.(check bool) (Printf.sprintf "USV'=A (%dx%d)" m n) true
        (Mat.rel_diff rec_a ~reference:a < 1e-10);
      (* σ sorted descending, non-negative *)
      for j = 1 to n - 1 do
        Alcotest.(check bool) "sorted" true (sigma.(j) <= sigma.(j - 1) +. 1e-12);
        Alcotest.(check bool) "non-negative" true (sigma.(j) >= 0.)
      done)
    [ (6, 6); (10, 4); (5, 5) ]

let test_svd_known_singular_values () =
  (* diag(3, 2, 1) has exactly those singular values. *)
  let a = Mat.of_arrays [| [| 3.; 0.; 0. |]; [| 0.; 2.; 0. |]; [| 0.; 0.; 1. |] |] in
  let _, sigma, _ = Factor.svd_jacobi a in
  Alcotest.(check (array (float 1e-12))) "singular values" [| 3.; 2.; 1. |] sigma

let test_truncate_rank () =
  let sigma = [| 4.; 2.; 1.; 0.1 |] in
  Alcotest.(check int) "keep all below tiny tol" 4 (Factor.truncate_rank ~tol:1e-6 sigma);
  Alcotest.(check int) "drop tail 0.1" 3 (Factor.truncate_rank ~tol:0.2 sigma);
  Alcotest.(check int) "drop down to 2" 2 (Factor.truncate_rank ~tol:1.2 sigma);
  Alcotest.(check int) "at least one" 1 (Factor.truncate_rank ~tol:100. sigma)

(* --- Lowrank --- *)

let rank_r_matrix rng m n r =
  let u = Mat.init ~rows:m ~cols:r (fun _ _ -> Rng.gaussian rng) in
  let v = Mat.init ~rows:n ~cols:r (fun _ _ -> Rng.gaussian rng) in
  let d = Mat.create ~rows:m ~cols:n in
  Blas.gemm_nt ~alpha:1. u v ~beta:0. d;
  d

let test_aca_exact_rank () =
  let rng = Rng.create ~seed:4 in
  let d = rank_r_matrix rng 20 16 3 in
  match Lowrank.of_dense ~tol:1e-10 d with
  | None -> Alcotest.fail "rank-3 matrix must compress"
  | Some lr ->
    Alcotest.(check int) "recovers exact rank" 3 (Lowrank.rank lr);
    Alcotest.(check bool) "reconstruction" true
      (Mat.rel_diff (Lowrank.to_dense lr) ~reference:d < 1e-10)

let test_aca_tolerance_respected () =
  (* Smooth kernel matrix: numerically low rank. *)
  let d =
    Mat.init ~rows:24 ~cols:24 (fun i j ->
      let h = float_of_int (i - j) /. 24. in
      exp (-2. *. h *. h))
  in
  let tol = 1e-6 in
  match Lowrank.of_dense ~tol d with
  | None -> Alcotest.fail "smooth kernel must compress"
  | Some lr ->
    let err = Mat.diff_frobenius (Lowrank.to_dense lr) d in
    Alcotest.(check bool) (Printf.sprintf "abs error %g ≤ tol" err) true (err <= tol);
    Alcotest.(check bool) "rank below cap" true (Lowrank.rank lr <= 12)

let test_aca_rejects_full_rank () =
  let rng = Rng.create ~seed:6 in
  let d = Mat.init ~rows:16 ~cols:16 (fun _ _ -> Rng.gaussian rng) in
  Alcotest.(check bool) "random dense matrix not compressible" true
    (Lowrank.of_dense ~tol:1e-12 d = None)

let test_recompress_reduces_rank () =
  let rng = Rng.create ~seed:7 in
  let d = rank_r_matrix rng 20 20 3 in
  let lr = Option.get (Lowrank.of_dense ~tol:1e-12 d) in
  (* Inflate the representation: A + A has rank 3 but representation 6. *)
  let doubled = Lowrank.add lr lr in
  Alcotest.(check int) "inflated rep" 6 (Lowrank.rank doubled);
  let rc = Lowrank.recompress ~tol:1e-10 doubled in
  Alcotest.(check int) "recompressed to true rank" 3 (Lowrank.rank rc);
  let expected = Mat.copy d in
  Mat.scale expected 2.;
  Alcotest.(check bool) "values preserved" true
    (Mat.rel_diff (Lowrank.to_dense rc) ~reference:expected < 1e-9)

let test_add_subtract () =
  let rng = Rng.create ~seed:8 in
  let d1 = rank_r_matrix rng 12 10 2 and d2 = rank_r_matrix rng 12 10 2 in
  let l1 = Option.get (Lowrank.of_dense ~tol:1e-12 d1) in
  let l2 = Option.get (Lowrank.of_dense ~tol:1e-12 d2) in
  let diff = Lowrank.add ~scale:(-1.) l1 l2 in
  let expected = Mat.copy d1 in
  Mat.add_scaled expected ~alpha:(-1.) d2;
  Alcotest.(check bool) "a - b" true
    (Mat.rel_diff (Lowrank.to_dense diff) ~reference:expected < 1e-10)

let test_matvec () =
  let rng = Rng.create ~seed:9 in
  let d = rank_r_matrix rng 15 11 4 in
  let lr = Option.get (Lowrank.of_dense ~tol:1e-12 d) in
  let x = Array.init 11 (fun i -> sin (float_of_int i)) in
  let y_lr = Lowrank.matvec lr x and y_d = Mat.matvec d x in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-10)) "matvec" y_d.(i) v)
    y_lr;
  let xt = Array.init 15 (fun i -> cos (float_of_int i)) in
  let yt_lr = Lowrank.matvec_trans lr xt and yt_d = Mat.matvec_trans d xt in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-10)) "matvec_trans" yt_d.(i) v)
    yt_lr

let test_memory_floats () =
  let rng = Rng.create ~seed:10 in
  let d = rank_r_matrix rng 30 20 2 in
  let lr = Option.get (Lowrank.of_dense ~tol:1e-12 d) in
  Alcotest.(check int) "(m+n)k" ((30 + 20) * Lowrank.rank lr) (Lowrank.memory_floats lr);
  Alcotest.(check bool) "beats dense" true (Lowrank.memory_floats lr < 30 * 20)

(* --- TLR matrices and Cholesky --- *)

let covariance_problem ~n ~nb =
  let rng = Rng.create ~seed:11 in
  let locs = Locations.morton_sort (Locations.jittered_grid_2d ~rng ~n) in
  (* A smooth field (ν = 1.5): exactly the data-sparse regime TLR targets. *)
  let cov = Covariance.matern ~nugget:1e-4 ~sigma2:1. ~beta:0.1 ~nu:1.5 () in
  (Covariance.build_dense cov locs, Covariance.build_tiled cov locs ~nb)

let test_compress_roundtrip () =
  let dense, tiled = covariance_problem ~n:256 ~nb:64 in
  let tlr = Tlr.compress ~tol:1e-8 tiled in
  Alcotest.(check bool) "some tiles compressed" true (Tlr.low_rank_fraction tlr > 0.3);
  let back = Tlr.to_dense tlr in
  Alcotest.(check bool) "reconstruction within tolerance" true
    (Mat.rel_diff back ~reference:dense < 1e-6)

let test_compression_saves_memory () =
  let _, tiled = covariance_problem ~n:256 ~nb:64 in
  let tight = Tlr.compress ~tol:1e-10 tiled in
  let loose = Tlr.compress ~tol:1e-4 tiled in
  Alcotest.(check bool) "loose compresses harder" true
    (Tlr.compression_ratio loose < Tlr.compression_ratio tight);
  Alcotest.(check bool) "saves memory" true (Tlr.compression_ratio loose < 0.9);
  Alcotest.(check bool) "mean rank positive" true (Tlr.mean_rank loose > 0.)

let test_tlr_cholesky_residual_tracks_tol () =
  let dense, tiled = covariance_problem ~n:256 ~nb:64 in
  let residual tol =
    let tlr = Tlr.compress ~tol tiled in
    Tlr.cholesky tlr;
    let l = Tlr.to_dense tlr in
    Mat.zero_upper l;
    Check.cholesky_residual ~a:dense ~l
  in
  let r_tight = residual 1e-10 and r_loose = residual 1e-4 in
  Alcotest.(check bool) (Printf.sprintf "tight %g < 1e-7" r_tight) true (r_tight < 1e-7);
  Alcotest.(check bool) (Printf.sprintf "loose %g < 1e-2" r_loose) true (r_loose < 1e-2);
  Alcotest.(check bool) "residual ordered by tol" true (r_tight < r_loose)

let test_tlr_solve_and_logdet () =
  let dense, tiled = covariance_problem ~n:256 ~nb:64 in
  let tlr = Tlr.compress ~tol:1e-10 tiled in
  Tlr.cholesky tlr;
  let b = Array.init 256 (fun i -> sin (0.2 *. float_of_int i)) in
  let x = Tlr.solve_lower_trans tlr (Tlr.solve_lower tlr b) in
  Alcotest.(check bool) "solve residual" true
    (Check.solve_residual ~a:dense ~x ~b < 1e-6);
  let lref = Blas.cholesky dense in
  Alcotest.(check bool) "log det" true
    (Float.abs (Tlr.log_det tlr -. Blas.log_det_from_chol lref) < 1e-4)

let test_mixed_precision_tlr () =
  (* The paper's future work: TLR + the adaptive precision map. *)
  let dense, tiled = covariance_problem ~n:256 ~nb:64 in
  let pmap = Pm.of_tiled ~u_req:1e-6 tiled in
  let tlr = Tlr.compress ~precision:pmap ~tol:1e-6 tiled in
  Tlr.cholesky tlr;
  let l = Tlr.to_dense tlr in
  Mat.zero_upper l;
  let r = Check.cholesky_residual ~a:dense ~l in
  Alcotest.(check bool) (Printf.sprintf "mixed TLR residual %g" r) true
    (r > 1e-12 && r < 1e-3)

(* The factor pinned bit for bit: the MD5 of the log-determinant and of
   every factor tile (dense entries, or U then V of a low-rank tile) over
   tolerances that exercise each low-rank product and recompression, with
   and without a precision map. *)
let test_tlr_factor_digest () =
  let _, tiled = covariance_problem ~n:256 ~nb:32 in
  let b = Buffer.create 4096 in
  let add_bits v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  let add_mat m =
    for j = 0 to Mat.cols m - 1 do
      for i = 0 to Mat.rows m - 1 do
        add_bits (Mat.get m i j)
      done
    done
  in
  let ranks = ref 0 in
  List.iter
    (fun (tol, u_req) ->
      let precision = Option.map (fun u_req -> Pm.of_tiled ~u_req tiled) u_req in
      let tlr = Tlr.compress ?precision ~tol tiled in
      Tlr.cholesky tlr;
      add_bits (Tlr.log_det tlr);
      for i = 0 to Tlr.nt tlr - 1 do
        for j = 0 to i do
          match Tlr.tile tlr i j with
          | Tlr.Dense d -> add_mat d
          | Tlr.Low_rank lr ->
            incr ranks;
            add_mat lr.Lowrank.u;
            add_mat lr.Lowrank.v
        done
      done)
    [ (1e-4, None); (1e-8, None); (1e-6, Some 1e-6) ];
  Alcotest.(check bool) "low-rank tiles present" true (!ranks > 0);
  Alcotest.(check string) "factor digest" "9677c29d6a369b79a0a35f7d3b483b7f"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_tlr_not_spd () =
  let d = Mat.init ~rows:64 ~cols:64 (fun i j -> if i = j then -1. else 0.) in
  let tlr = Tlr.compress ~tol:1e-8 (Tiled.of_dense ~nb:16 d) in
  Alcotest.(check bool) "raises" true
    (try
       Tlr.cholesky tlr;
       false
     with Blas.Not_positive_definite _ -> true)

let prop_lowrank_roundtrip =
  QCheck.Test.make ~name:"ACA roundtrip on random low-rank matrices" ~count:40
    QCheck.(triple (int_range 4 20) (int_range 4 20) (int_range 1 3))
    (fun (m, n, r) ->
      QCheck.assume (r < min m n / 2);
      let rng = Rng.create ~seed:(m + (n * 31) + (r * 997)) in
      let d = rank_r_matrix rng m n r in
      match Lowrank.of_dense ~tol:1e-9 d with
      | None -> false
      | Some lr ->
        Lowrank.rank lr <= r && Mat.rel_diff (Lowrank.to_dense lr) ~reference:d < 1e-7)

let () =
  Alcotest.run "tlr"
    [
      ( "factor",
        [
          Alcotest.test_case "qr reconstructs" `Quick test_qr_reconstructs;
          Alcotest.test_case "qr upper triangular" `Quick test_qr_r_upper_triangular;
          Alcotest.test_case "svd reconstructs" `Quick test_svd_reconstructs;
          Alcotest.test_case "svd known values" `Quick test_svd_known_singular_values;
          Alcotest.test_case "truncate rank" `Quick test_truncate_rank;
        ] );
      ( "lowrank",
        [
          Alcotest.test_case "aca exact rank" `Quick test_aca_exact_rank;
          Alcotest.test_case "aca tolerance" `Quick test_aca_tolerance_respected;
          Alcotest.test_case "aca rejects full rank" `Quick test_aca_rejects_full_rank;
          Alcotest.test_case "recompress" `Quick test_recompress_reduces_rank;
          Alcotest.test_case "add/subtract" `Quick test_add_subtract;
          Alcotest.test_case "matvec" `Quick test_matvec;
          Alcotest.test_case "memory accounting" `Quick test_memory_floats;
          QCheck_alcotest.to_alcotest prop_lowrank_roundtrip;
        ] );
      ( "tlr cholesky",
        [
          Alcotest.test_case "compress roundtrip" `Quick test_compress_roundtrip;
          Alcotest.test_case "memory savings" `Quick test_compression_saves_memory;
          Alcotest.test_case "residual tracks tol" `Quick test_tlr_cholesky_residual_tracks_tol;
          Alcotest.test_case "solve & logdet" `Quick test_tlr_solve_and_logdet;
          Alcotest.test_case "mixed-precision TLR" `Quick test_mixed_precision_tlr;
          Alcotest.test_case "factor digest" `Quick test_tlr_factor_digest;
          Alcotest.test_case "not SPD" `Quick test_tlr_not_spd;
        ] );
    ]
