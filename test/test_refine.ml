module Mat = Geomix_linalg.Mat
module Check = Geomix_linalg.Check
module Tiled = Geomix_tile.Tiled
module Pm = Geomix_core.Precision_map
module Mp = Geomix_core.Mp_cholesky
module Refine = Geomix_core.Refine
module Fp = Geomix_precision.Fpformat
module Rng = Geomix_util.Rng

let decay_spd n =
  Mat.init ~rows:n ~cols:n (fun i j ->
    (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))

let problem n nb =
  let d = decay_spd n in
  let a = Tiled.of_dense ~nb d in
  let b = Array.init n (fun i -> cos (0.3 *. float_of_int i)) in
  (d, a, b)

let factorize pmap a =
  let f = Tiled.copy a in
  Mp.factorize ~pmap f;
  f

(* The refinement residual b − A·x comes from the tiled symmetric matvec.
   Under the identity as the factor, x = b, so the reported residual norm
   must equal the dense ‖b − A·b‖/‖b‖, ragged edge tiles included. *)
let test_matvec_sym_matches_dense () =
  let rng = Rng.create ~seed:1 in
  let norm2 v = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. v) in
  List.iter
    (fun (n, nb) ->
      let d = Check.spd_random ~rng ~n in
      let a = Tiled.of_dense ~nb d in
      let identity = Tiled.of_dense ~nb (Mat.identity n) in
      let b = Array.init n (fun i -> sin (float_of_int i)) in
      let r = Refine.solve ~max_iterations:0 ~a ~factor:identity ~b () in
      let ab = Mat.matvec d b in
      let dense = norm2 (Array.mapi (fun i bi -> bi -. ab.(i)) b) /. norm2 b in
      match r.Refine.residual_norms with
      | [ tiled ] ->
        Alcotest.(check (float (1e-12 *. dense)))
          (Printf.sprintf "n=%d nb=%d" n nb) dense tiled
      | _ -> Alcotest.fail "expected one residual")
    [ (12, 4); (30, 7); (64, 16) ]

let test_fp64_factor_converges_immediately () =
  let d, a, b = problem 96 32 in
  let f = factorize (Pm.uniform ~nt:(Tiled.nt a) Fp.Fp64) a in
  let r = Refine.solve ~a ~factor:f ~b () in
  Alcotest.(check bool) "converged" true r.Refine.converged;
  Alcotest.(check bool) "no sweeps needed" true (r.Refine.iterations <= 1);
  Alcotest.(check bool) "solution solves Ax=b" true
    (Check.solve_residual ~a:d ~x:r.Refine.x ~b < 1e-12)

let test_low_precision_factor_refined_to_fp64 () =
  let d, a, b = problem 128 32 in
  (* FP16-heavy factor: direct solve only reaches ~1e-4; refinement must
     recover FP64-level accuracy. *)
  let f = factorize (Pm.two_level ~nt:(Tiled.nt a) ~off_diag:Fp.Fp16) a in
  let direct = Mp.solve_lower_trans f (Mp.solve_lower f b) in
  let direct_res = Check.solve_residual ~a:d ~x:direct ~b in
  let r = Refine.solve ~a ~factor:f ~b () in
  let refined_res = Check.solve_residual ~a:d ~x:r.Refine.x ~b in
  Alcotest.(check bool)
    (Printf.sprintf "direct %.2e -> refined %.2e" direct_res refined_res)
    true
    (r.Refine.converged && refined_res < 1e-11 && direct_res > 1e-7);
  Alcotest.(check bool) "needed a few sweeps" true
    (r.Refine.iterations >= 1 && r.Refine.iterations <= 20)

let test_residual_history_decreases () =
  let _, a, b = problem 96 32 in
  let f = factorize (Pm.two_level ~nt:(Tiled.nt a) ~off_diag:Fp.Fp16) a in
  let r = Refine.solve ~a ~factor:f ~b () in
  let rec check_decreasing = function
    | x :: (y :: _ as rest) ->
      Alcotest.(check bool) "monotone decrease" true (y < x);
      check_decreasing rest
    | _ -> ()
  in
  check_decreasing r.Refine.residual_norms

let test_adaptive_factor_refinement () =
  let d, a, b = problem 160 32 in
  let f = factorize (Pm.of_tiled ~u_req:1e-4 a) a in
  let r = Refine.solve ~a ~factor:f ~b () in
  Alcotest.(check bool) "converged to FP64 accuracy" true
    (r.Refine.converged && Check.solve_residual ~a:d ~x:r.Refine.x ~b < 1e-11)

let test_tolerance_respected () =
  let _, a, b = problem 96 32 in
  let f = factorize (Pm.two_level ~nt:(Tiled.nt a) ~off_diag:Fp.Fp16) a in
  let loose = Refine.solve ~tolerance:1e-6 ~a ~factor:f ~b () in
  let tight = Refine.solve ~tolerance:1e-13 ~a ~factor:f ~b () in
  Alcotest.(check bool) "loose stops earlier" true
    (loose.Refine.iterations <= tight.Refine.iterations)

let test_max_iterations_cap () =
  let _, a, b = problem 96 32 in
  let f = factorize (Pm.two_level ~nt:(Tiled.nt a) ~off_diag:Fp.Fp16) a in
  let r = Refine.solve ~max_iterations:0 ~tolerance:1e-300 ~a ~factor:f ~b () in
  Alcotest.(check int) "capped" 0 r.Refine.iterations;
  Alcotest.(check bool) "reported not converged" false r.Refine.converged

let prop_refined_never_worse_than_direct =
  QCheck.Test.make ~name:"refinement never increases the residual" ~count:15
    (QCheck.int_range 2 5)
    (fun ntiles ->
      let n = ntiles * 24 in
      let d, a, b = problem n 24 in
      let f = factorize (Pm.two_level ~nt:ntiles ~off_diag:Fp.Fp16_32) a in
      let direct = Mp.solve_lower_trans f (Mp.solve_lower f b) in
      let r = Refine.solve ~a ~factor:f ~b () in
      Check.solve_residual ~a:d ~x:r.Refine.x ~b
      <= Check.solve_residual ~a:d ~x:direct ~b +. 1e-15)

let () =
  Alcotest.run "refine"
    [
      ( "iterative refinement",
        [
          Alcotest.test_case "matvec_sym = dense" `Quick test_matvec_sym_matches_dense;
          Alcotest.test_case "fp64 factor immediate" `Quick test_fp64_factor_converges_immediately;
          Alcotest.test_case "fp16 factor refined" `Quick test_low_precision_factor_refined_to_fp64;
          Alcotest.test_case "residual history" `Quick test_residual_history_decreases;
          Alcotest.test_case "adaptive factor" `Quick test_adaptive_factor_refinement;
          Alcotest.test_case "tolerance respected" `Quick test_tolerance_respected;
          Alcotest.test_case "iteration cap" `Quick test_max_iterations_cap;
          QCheck_alcotest.to_alcotest prop_refined_never_worse_than_direct;
        ] );
    ]
