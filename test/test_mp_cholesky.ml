module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Check = Geomix_linalg.Check
module Tiled = Geomix_tile.Tiled
module Pm = Geomix_core.Precision_map
module Mp = Geomix_core.Mp_cholesky
module Fp = Geomix_precision.Fpformat
module Rng = Geomix_util.Rng
module Cm = Geomix_core.Comm_map
module Fault = Geomix_fault.Fault
module Covariance = Geomix_geostat.Covariance
module Locations = Geomix_geostat.Locations

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

(* Buffer reuse.  Restore copies and converted broadcast forms are recycled
   between calls, so a recycled buffer must never carry one call's bytes into
   another call's result. *)

(* MD5 of every stored tile's bits, in [Tiled.iter_lower] order. *)
let tiles_md5 a =
  let buf = Buffer.create 4096 in
  Tiled.iter_lower a (fun ~i:_ ~j:_ m ->
    for c = 0 to Mat.cols m - 1 do
      for r = 0 to Mat.rows m - 1 do
        Buffer.add_int64_le buf (Int64.bits_of_float (Mat.get m r c))
      done
    done);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A decaying SPD matrix at rate [decay]; [indefinite] makes its last
   diagonal entry negative, so every round fails at the last POTRF, after
   nearly all of the trailing updates have overwritten the input. *)
let reuse_matrix ~n ~nb ~decay ~indefinite =
  Tiled.init ~n ~nb (fun i j ->
    if indefinite && i = n - 1 && j = n - 1 then -1.
    else (if i = j then 1.0 else 0.) +. exp (-.decay *. float_of_int (abs (i - j))))

let report_summary (r : Mp.report) =
  let outcome =
    match r.Mp.outcome with
    | Mp.Factorized -> "factorized"
    | Mp.Indefinite p -> Printf.sprintf "indefinite at %d" p
  in
  let escalation e =
    Printf.sprintf "%s %d" (match e.Mp.scope with Mp.Band -> "band" | Mp.Full -> "full")
      e.Mp.block
  in
  String.concat "; "
    ((outcome :: List.map escalation r.Mp.escalations)
    @ [ Printf.sprintf "%d rounds" r.Mp.rounds; Pm.render r.Mp.pmap ])

let test_stale_restore_buffer () =
  (* A escalates (its failed round restores from the restore copy), then B
     of the same shape fails at every round and ends Indefinite: B must come
     back bit for bit, not with A's bytes or a stale partial factor. *)
  let n = 100 and nb = 16 in
  let nt = (n + nb - 1) / nb in
  let pmap = Pm.two_level ~nt ~off_diag:Fp.Fp16_32 in
  let a = reuse_matrix ~n ~nb ~decay:0.05 ~indefinite:false in
  let faults = Fault.plan ~pivot_rate:1. ~sleep:ignore ~seed:3 () in
  let ra = Mp.factorize_robust ~faults ~pmap a in
  Alcotest.(check bool) "A factorized" true (ra.Mp.outcome = Mp.Factorized);
  Alcotest.(check bool) "A escalated" true (ra.Mp.escalations <> []);
  let b = reuse_matrix ~n ~nb ~decay:0.2 ~indefinite:true in
  let before = tiles_md5 b in
  let rb = Mp.factorize_robust ~pmap b in
  Alcotest.(check string) "B indefinite" (Printf.sprintf "indefinite at %d" (n - 1))
    (match rb.Mp.outcome with
    | Mp.Indefinite p -> Printf.sprintf "indefinite at %d" p
    | Mp.Factorized -> "factorized");
  Alcotest.(check bool) "B restored several times" true (rb.Mp.rounds > 1);
  Alcotest.(check string) "B restored bitwise" before (tiles_md5 b)

let test_concurrent_reuse () =
  (* Two domains make 20 calls each on one shape under forced pivot
     failures; every fifth matrix is indefinite.  Each factor (or restored
     input) and each report equals the serial reference bit for bit. *)
  let n = 96 and nb = 16 and calls = 20 in
  let pmap = Pm.two_level ~nt:(n / nb) ~off_diag:Fp.Fp16_32 in
  Alcotest.(check bool) "the map ships converted forms" true
    (let cm = Cm.compute pmap in
     let stc = ref false in
     for i = 0 to (n / nb) - 1 do
       for j = 0 to i do
         if Cm.strategy cm i j = Cm.Stc then stc := true
       done
     done;
     !stc);
  let call d k =
    let id = (d * calls) + k in
    let a =
      reuse_matrix ~n ~nb ~decay:(0.05 +. (0.005 *. float_of_int id))
        ~indefinite:(k mod 5 = 4)
    in
    let faults = Fault.plan ~pivot_rate:1. ~sleep:ignore ~seed:id () in
    let r = Mp.factorize_robust ~faults ~pmap a in
    (tiles_md5 a, report_summary r)
  in
  let run d = List.init calls (call d) in
  let reference = [ run 0; run 1 ] in
  let summaries = List.concat_map (List.map snd) reference in
  let seen prefix =
    List.exists (fun r -> String.starts_with ~prefix r) summaries
  in
  Alcotest.(check bool) "some calls escalate" true (seen "factorized; band");
  Alcotest.(check bool) "some calls end indefinite" true (seen "indefinite");
  let domains = List.map (fun d -> Domain.spawn (fun () -> run d)) [ 0; 1 ] in
  let got = List.map Domain.join domains in
  List.iteri
    (fun d (want, have) ->
      List.iteri
        (fun k ((wf, wr), (hf, hr)) ->
          Alcotest.(check string) (Printf.sprintf "domain %d call %d factor" d k) wf hf;
          Alcotest.(check string) (Printf.sprintf "domain %d call %d report" d k) wr hr)
        (List.combine want have))
    (List.combine reference got)

let test_warm_call_allocates_nothing () =
  (* Once a shape has run, a fault-free [factorize_robust] of that shape
     under a mixed map allocates no matrix: the restore copy, the converted
     broadcast forms and the kernels' scratch all come from the pool. *)
  List.iter
    (fun (n, nb) ->
      let rng = Rng.create ~seed:1 in
      let locs = Locations.morton_sort (Locations.jittered_grid_2d ~rng ~n) in
      let cov = Covariance.matern ~sigma2:1. ~beta:0.1 ~nu:0.5 () in
      let build () = Covariance.build_tiled cov locs ~nb in
      let pmap = Pm.of_tiled ~u_req:1e-6 (build ()) in
      let label what = Printf.sprintf "n = %d, nb = %d: %s" n nb what in
      Alcotest.(check bool) (label "mixed map") false (Pm.all_fp64 pmap);
      ignore (Mp.factorize_robust ~pmap (build ()));
      let a = build () in
      let tiles0, bytes0 = Mat.allocations () in
      let r = Mp.factorize_robust ~pmap a in
      let tiles1, bytes1 = Mat.allocations () in
      Alcotest.(check bool) (label "fault-free") true
        (r.Mp.outcome = Mp.Factorized && r.Mp.rounds = 1);
      Alcotest.(check int) (label "tiles allocated") 0 (tiles1 - tiles0);
      Alcotest.(check int) (label "bytes allocated") 0 (bytes1 - bytes0))
    [ (384, 16); (512, 64) ]

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
      ( "buffer reuse",
        [
          Alcotest.test_case "stale restore buffer" `Quick test_stale_restore_buffer;
          Alcotest.test_case "two domains = serial" `Quick test_concurrent_reuse;
          Alcotest.test_case "warm call allocates nothing" `Quick
            test_warm_call_allocates_nothing;
        ] );
    ]
