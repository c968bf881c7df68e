module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Check = Geomix_linalg.Check
module Tiled = Geomix_tile.Tiled
module Pm = Geomix_core.Precision_map
module Mp = Geomix_core.Mp_cholesky
module Fp = Geomix_precision.Fpformat
module Rng = Geomix_util.Rng

(* A covariance-like SPD test matrix with decaying off-diagonal mass. *)
let decay_spd n =
  Mat.init ~rows:n ~cols:n (fun i j ->
    (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))

let factor_residual ?cmap ~pmap ~nb dense =
  let a = Tiled.of_dense ~nb dense in
  Mp.factorize ?cmap ~pmap a;
  let l = Tiled.to_dense a in
  Mat.zero_upper l;
  Check.cholesky_residual ~a:dense ~l

let test_fp64_matches_reference () =
  let d = decay_spd 96 in
  let r = factor_residual ~pmap:(Pm.uniform ~nt:6 Fp.Fp64) ~nb:16 d in
  Alcotest.(check bool) (Printf.sprintf "fp64 residual %g" r) true (r < 1e-14)

let test_fp64_ragged () =
  let d = decay_spd 50 in
  let r = factor_residual ~pmap:(Pm.uniform ~nt:4 Fp.Fp64) ~nb:16 d in
  Alcotest.(check bool) "ragged residual" true (r < 1e-14)

let test_residual_tracks_accuracy () =
  let d = decay_spd 160 in
  let a = Tiled.of_dense ~nb:32 d in
  let res u =
    let pmap = Pm.of_tiled ~u_req:u a in
    factor_residual ~pmap ~nb:32 d
  in
  let r9 = res 1e-9 and r4 = res 1e-4 and r2 = res 1e-2 in
  Alcotest.(check bool) (Printf.sprintf "1e-9 tight (%g)" r9) true (r9 < 1e-8);
  Alcotest.(check bool) (Printf.sprintf "1e-4 mid (%g)" r4) true (r4 < 1e-3 && r4 > r9);
  Alcotest.(check bool) (Printf.sprintf "1e-2 loose (%g)" r2) true (r2 < 1e-1 && r2 >= r4)

let test_two_level_fp16_residual () =
  let d = decay_spd 128 in
  let r = factor_residual ~pmap:(Pm.two_level ~nt:4 ~off_diag:Fp.Fp16) ~nb:32 d in
  Alcotest.(check bool) (Printf.sprintf "fp16 off-diag residual %g" r) true
    (r > 1e-8 && r < 1e-2)

let test_pmap_mismatch_rejected () =
  let d = decay_spd 64 in
  let a = Tiled.of_dense ~nb:16 d in
  Alcotest.check_raises "tile count mismatch"
    (Invalid_argument "Mp_cholesky.factorize: precision map / matrix tile mismatch")
    (fun () -> Mp.factorize ~pmap:(Pm.uniform ~nt:3 Fp.Fp64) a)

let test_not_spd_raises () =
  let d = Mat.init ~rows:32 ~cols:32 (fun i j -> if i = j then -1. else 0.) in
  let a = Tiled.of_dense ~nb:16 d in
  Alcotest.(check bool) "raises Not_positive_definite" true
    (try
       Mp.factorize ~pmap:(Pm.uniform ~nt:2 Fp.Fp64) a;
       false
     with Blas.Not_positive_definite _ -> true)

let test_parallel_matches_serial () =
  let d = decay_spd 128 in
  let pmap = Pm.of_tiled ~u_req:1e-6 (Tiled.of_dense ~nb:32 d) in
  let serial = Tiled.of_dense ~nb:32 d in
  Mp.factorize ~pmap serial;
  Geomix_parallel.Pool.with_pool ~num_workers:3 (fun pool ->
    let par = Tiled.of_dense ~nb:32 d in
    Mp.factorize ~pool ~pmap par;
    Alcotest.(check (float 0.)) "bitwise identical" 0. (Tiled.rel_diff par ~reference:serial))

let test_ttc_vs_automatic_accuracy () =
  (* STC down-casts broadcasts, so Algorithm 2's map may lose a bounded
     amount of accuracy relative to the always-TTC map — but both must
     honour u_req's order. *)
  let d = decay_spd 160 in
  let a = Tiled.of_dense ~nb:32 d in
  let pmap = Pm.of_tiled ~u_req:1e-6 a in
  let r_ttc = factor_residual ~cmap:(Geomix_core.Comm_map.ttc pmap) ~pmap ~nb:32 d
  and r_auto = factor_residual ~pmap ~nb:32 d in
  Alcotest.(check bool)
    (Printf.sprintf "both accurate (ttc %g, auto %g)" r_ttc r_auto)
    true
    (r_ttc < 1e-4 && r_auto < 1e-4)

let test_solve_and_logdet () =
  let n = 80 in
  let d = decay_spd n in
  let a = Tiled.of_dense ~nb:32 d in
  Mp.factorize ~pmap:(Pm.uniform ~nt:(Tiled.nt a) Fp.Fp64) a;
  let b = Array.init n (fun i -> sin (float_of_int i)) in
  let x = Mp.solve_lower_trans a (Mp.solve_lower a b) in
  Alcotest.(check bool) "solve residual" true (Check.solve_residual ~a:d ~x ~b < 1e-12);
  let lref = Blas.cholesky d in
  Alcotest.(check (float 1e-9)) "log det" (Blas.log_det_from_chol lref) (Mp.log_det a)

let prop_fp64_equals_dense_reference =
  QCheck.Test.make ~name:"tiled FP64 factor = dense factor" ~count:20
    QCheck.(pair (int_range 2 6) (int_range 4 24))
    (fun (ntiles, nb) ->
      let n = ntiles * nb in
      let rng = Rng.create ~seed:(n * 3) in
      let d = Check.spd_random ~rng ~n in
      let a = Tiled.of_dense ~nb d in
      Mp.factorize ~pmap:(Pm.uniform ~nt:ntiles Fp.Fp64) a;
      let lt = Tiled.to_dense a in
      Mat.zero_upper lt;
      let lref = Blas.cholesky d in
      Mat.rel_diff lt ~reference:lref < 1e-12)

let () =
  Alcotest.run "mp_cholesky"
    [
      ( "factorization",
        [
          Alcotest.test_case "fp64 reference" `Quick test_fp64_matches_reference;
          Alcotest.test_case "fp64 ragged tiles" `Quick test_fp64_ragged;
          Alcotest.test_case "residual tracks u_req" `Quick test_residual_tracks_accuracy;
          Alcotest.test_case "two-level fp16" `Quick test_two_level_fp16_residual;
          Alcotest.test_case "pmap mismatch" `Quick test_pmap_mismatch_rejected;
          Alcotest.test_case "not SPD" `Quick test_not_spd_raises;
          Alcotest.test_case "parallel = serial" `Quick test_parallel_matches_serial;
          Alcotest.test_case "TTC vs automatic accuracy" `Quick test_ttc_vs_automatic_accuracy;
          Alcotest.test_case "solve & log det" `Quick test_solve_and_logdet;
          QCheck_alcotest.to_alcotest prop_fp64_equals_dense_reference;
        ] );
    ]
