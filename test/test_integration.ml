(* End-to-end paths across the whole stack: covariance → precision map →
   comm map → mixed-precision factorization → likelihood, and the same
   precision map driving the hardware simulator. *)

module Locations = Geomix_geostat.Locations
module Covariance = Geomix_geostat.Covariance
module Field = Geomix_geostat.Field
module Pm = Geomix_core.Precision_map
module Cm = Geomix_core.Comm_map
module Mp = Geomix_core.Mp_cholesky
module Sim = Geomix_core.Sim_cholesky
module Machine = Geomix_gpusim.Machine
module Gpu = Geomix_gpusim.Gpu_specs
module Tiled = Geomix_tile.Tiled
module Mat = Geomix_linalg.Mat
module Check = Geomix_linalg.Check
module Fp = Geomix_precision.Fpformat
module Rng = Geomix_util.Rng

let setup ~n ~seed cov =
  let rng = Rng.create ~seed in
  let locs = Locations.morton_sort (Locations.jittered_grid_2d ~rng ~n) in
  let z = Field.synthesize ~rng ~cov locs in
  (locs, z)

let test_covariance_maps_have_band_structure () =
  (* Morton-ordered geospatial covariances give the paper's Fig 2a shape:
     high precision hugging the diagonal, FP16 far away. *)
  let cov = Covariance.sqexp ~sigma2:1. ~beta:0.01 () in
  let rng = Rng.create ~seed:11 in
  let locs = Locations.morton_sort (Locations.jittered_grid_2d ~rng ~n:512) in
  let a = Covariance.build_tiled cov locs ~nb:32 in
  let pmap = Pm.of_tiled ~u_req:1e-4 a in
  let ntl = Pm.nt pmap in
  (* Sub-diagonal tiles at least FP32-class; far tiles mostly FP16-class. *)
  let far_low = ref 0 and far_total = ref 0 in
  for i = 0 to ntl - 1 do
    for j = 0 to i - 1 do
      if i - j > ntl / 2 then begin
        incr far_total;
        match Pm.get pmap i j with
        | Fp.Fp16 | Fp.Fp16_32 -> incr far_low
        | _ -> ()
      end
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "far tiles mostly low precision (%d/%d)" !far_low !far_total)
    true
    (!far_total > 0 && float_of_int !far_low /. float_of_int !far_total > 0.5)

let test_mp_factorization_of_real_covariance () =
  let cov = Covariance.matern ~sigma2:1. ~beta:0.1 ~nu:0.5 () in
  let locs, _ = setup ~n:256 ~seed:12 cov in
  let dense = Covariance.build_dense cov locs in
  let a = Covariance.build_tiled cov locs ~nb:32 in
  let pmap = Pm.of_tiled ~u_req:1e-6 a in
  Mp.factorize ~pmap a;
  let l = Tiled.to_dense a in
  Mat.zero_upper l;
  let r = Check.cholesky_residual ~a:dense ~l in
  Alcotest.(check bool) (Printf.sprintf "residual %g ≲ u_req" r) true (r < 1e-4)

let test_same_pmap_drives_numeric_and_simulated () =
  let cov = Covariance.sqexp ~nugget:0.02 ~sigma2:1. ~beta:0.03 () in
  let locs, _ = setup ~n:256 ~seed:13 cov in
  let a = Covariance.build_tiled cov locs ~nb:32 in
  let pmap = Pm.of_tiled ~u_req:1e-4 a in
  (* Numeric side. *)
  Mp.factorize ~pmap (Tiled.copy a);
  (* Simulated side, same map. *)
  let r = Sim.run ~machine:(Machine.single_gpu Gpu.V100) ~pmap ~nb:2048 () in
  Alcotest.(check bool) "simulated run completes" true (r.Sim.makespan > 0.);
  (* The adaptive run must beat a uniform FP64 simulation. *)
  let r64 =
    Sim.run ~machine:(Machine.single_gpu Gpu.V100)
      ~pmap:(Pm.uniform ~nt:(Pm.nt pmap) Fp.Fp64)
      ~nb:2048 ()
  in
  Alcotest.(check bool) "adaptive faster than FP64" true (r.Sim.makespan < r64.Sim.makespan)

let test_accuracy_chain_end_to_end () =
  (* Tighter u_req ⇒ factorization closer to FP64 ⇒ log-likelihood closer
     to the exact value: the full Fig 5 mechanism in one assertion. *)
  let cov = Covariance.matern ~sigma2:1. ~beta:0.1 ~nu:0.5 () in
  let locs, z = setup ~n:196 ~seed:14 cov in
  let exact = Geomix_geostat.Likelihood.loglik Geomix_geostat.Likelihood.Exact ~cov ~locs ~z in
  let delta u =
    let ll =
      Geomix_geostat.Likelihood.loglik
        (Geomix_geostat.Likelihood.mixed ~u_req:u ~nb:28 ())
        ~cov ~locs ~z
    in
    Float.abs (ll -. exact)
  in
  let d9 = delta 1e-9 and d2 = delta 1e-2 in
  Alcotest.(check bool) (Printf.sprintf "Δ(1e-9)=%g ≤ Δ(1e-2)=%g" d9 d2) true (d9 <= d2);
  Alcotest.(check bool) "1e-9 is near-exact" true (d9 < 1e-4 *. (1. +. Float.abs exact))

let test_stc_numeric_accuracy_cost_is_bounded () =
  (* The ablation the paper does not run: STC's extra down-conversion must
     not degrade the factorization beyond its accuracy class. *)
  let cov = Covariance.sqexp ~nugget:0.02 ~sigma2:1. ~beta:0.03 () in
  let locs, _ = setup ~n:256 ~seed:15 cov in
  let dense = Covariance.build_dense cov locs in
  let residual ~ttc =
    let a = Covariance.build_tiled cov locs ~nb:32 in
    let pmap = Pm.of_tiled ~u_req:1e-4 a in
    let cmap = if ttc then Some (Cm.ttc pmap) else None in
    Mp.factorize ?cmap ~pmap a;
    let l = Tiled.to_dense a in
    Mat.zero_upper l;
    Check.cholesky_residual ~a:dense ~l
  in
  let r_auto = residual ~ttc:false and r_ttc = residual ~ttc:true in
  Alcotest.(check bool)
    (Printf.sprintf "auto %g within 50x of ttc %g" r_auto r_ttc)
    true
    (r_auto < 50. *. r_ttc +. 1e-12)

let test_comm_map_consistency_with_sim () =
  (* The simulator's conversion counters must reflect the comm map: an
     all-STC config does exactly one conversion per broadcasting tile. *)
  let ntiles = 10 in
  let pmap = Pm.two_level ~nt:ntiles ~off_diag:Fp.Fp16 in
  let cm = Cm.compute pmap in
  Alcotest.(check bool) "all broadcasting tiles STC" true (Cm.stc_fraction cm > 0.9);
  let r =
    Sim.run ~machine:(Machine.single_gpu Gpu.A100) ~pmap ~nb:2048 ()
  in
  (* One producer conversion per POTRF/TRSM task that is STC (the last
     diagonal tile broadcasts nothing). *)
  let broadcasters = ntiles - 1 + (ntiles * (ntiles - 1) / 2) in
  Alcotest.(check bool)
    (Printf.sprintf "conversions %d ≈ broadcasters %d" r.Sim.conversions broadcasters)
    true
    (r.Sim.conversions >= broadcasters && r.Sim.conversions <= 2 * broadcasters)

(* Pins of the conversion-strategy behaviour: hex digests of the factor's
   bits under the automated and the always-TTC conversion, and the
   simulator's makespan, traffic and conversion count under both.  Any
   change to how a strategy is expressed must leave every value here
   unchanged. *)
let factor_digest ~seed ~ttc =
  let cov = Covariance.matern ~sigma2:1. ~beta:0.1 ~nu:0.5 () in
  let locs, _ = setup ~n:96 ~seed cov in
  let a = Covariance.build_tiled cov locs ~nb:16 in
  let pmap = Pm.of_tiled ~u_req:1e-4 a in
  let cmap = if ttc then Some (Cm.ttc pmap) else None in
  Mp.factorize ?cmap ~pmap a;
  let buf = Buffer.create (96 * 96 * 8) in
  Tiled.iter_lower a (fun ~i:_ ~j:_ m ->
    for c = 0 to Mat.cols m - 1 do
      for r = 0 to Mat.rows m - 1 do
        Buffer.add_int64_le buf (Int64.bits_of_float (Mat.get m r c))
      done
    done);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_factor_digests_pinned () =
  let expected =
    [
      "seed 1 auto: 748fdd6c1c4c3945b4de8e21eea253ce";
      "seed 1 ttc: 693a892aa2cc6c84df99afae526fd5f3";
      "seed 2 auto: d5bce74e9e6fc355d295fa149de431b5";
      "seed 2 ttc: eed510984eb82b9558c47e48124dfa6b";
      "seed 3 auto: b93e09286c19f3f21d748e1d9402dac4";
      "seed 3 ttc: 43a339ecafa65eb23b6c2e43d7765f2a";
    ]
  in
  let got =
    List.concat_map
      (fun seed ->
        List.map
          (fun ttc ->
            Printf.sprintf "seed %d %s: %s" seed
              (if ttc then "ttc" else "auto")
              (factor_digest ~seed ~ttc))
          [ false; true ])
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list string)) "factor digests" expected got

let sim_pin ~machine ~nt ~off_diag ~ttc =
  let pmap = Pm.two_level ~nt ~off_diag in
  let cmap = if ttc then Some (Cm.ttc pmap) else None in
  let r = Sim.run ?cmap ~machine ~pmap ~nb:2048 () in
  Printf.sprintf "makespan=%h h2d=%h d2d=%h nic=%h conv=%d" r.Sim.makespan
    r.Sim.bytes_h2d r.Sim.bytes_d2d r.Sim.bytes_nic r.Sim.conversions

let test_sim_strategies_pinned () =
  let machines =
    [ ("v100", Machine.single_gpu Gpu.V100); ("summit2", Machine.summit ~nodes:2 ()) ]
  in
  let expected =
    [
      "v100 nt=12 FP16 stc: makespan=0x1.c2c74a4dcd6fdp-3 h2d=0x0p+0 d2d=0x0p+0 nic=0x0p+0 conv=143";
      "v100 nt=12 FP16 ttc: makespan=0x1.fcbb5dfd5aac7p-3 h2d=0x0p+0 d2d=0x0p+0 nic=0x0p+0 conv=572";
      "v100 nt=40 FP16_32 stc: makespan=0x1.fd865fa12c05ap+1 h2d=0x1.75cp+34 d2d=0x0p+0 nic=0x0p+0 conv=1599";
      "v100 nt=40 FP16_32 ttc: makespan=0x1.448e6dc668762p+2 h2d=0x1.7dcp+34 d2d=0x0p+0 nic=0x0p+0 conv=21320";
      "summit2 nt=12 FP16 stc: makespan=0x1.146ebd0d442edp-4 h2d=0x0p+0 d2d=0x1.d2p+30 nic=0x1.2cp+29 conv=143";
      "summit2 nt=12 FP16 ttc: makespan=0x1.606bda3a42241p-4 h2d=0x0p+0 d2d=0x1.d2p+31 nic=0x1.2cp+30 conv=572";
      "summit2 nt=40 FP16_32 stc: makespan=0x1.f93c3b49f592fp-2 h2d=0x0p+0 d2d=0x1.776p+34 nic=0x1.998p+32 conv=1599";
      "summit2 nt=40 FP16_32 ttc: makespan=0x1.5417c38599e3fp-1 h2d=0x0p+0 d2d=0x1.776p+35 nic=0x1.998p+33 conv=21320";
    ]
  in
  let got =
    List.concat_map
      (fun (mname, machine) ->
        List.concat_map
          (fun (nt, off_diag) ->
            List.map
              (fun ttc ->
                Printf.sprintf "%s nt=%d %s %s: %s" mname nt (Fp.name off_diag)
                  (if ttc then "ttc" else "stc")
                  (sim_pin ~machine ~nt ~off_diag ~ttc))
              [ false; true ])
          (* The NT=40 map overflows one V100, so it also pins host traffic. *)
          [ (12, Fp.Fp16); (40, Fp.Fp16_32) ])
      machines
  in
  Alcotest.(check (list string)) "sim pins" expected got

let test_scaled_summit_weak_scaling_shape () =
  (* Weak scaling (Fig 12a): with memory-proportional sizing (nt ∝ √GPUs,
     constant tiles per GPU) the aggregate rate must keep growing and the
     per-GPU rate must retain most of the single-node value. *)
  let per_gpu nodes ntiles =
    let r =
      Sim.run ~machine:(Machine.summit ~nodes ()) ~pmap:(Pm.uniform ~nt:ntiles Fp.Fp64)
        ~nb:2048 ()
    in
    r.Sim.tflops /. float_of_int r.Sim.ngpus
  in
  let p1 = per_gpu 1 49 and p4 = per_gpu 4 98 in
  Alcotest.(check bool)
    (Printf.sprintf "per-GPU rate retained (%.2f → %.2f)" p1 p4)
    true
    (p4 > 0.8 *. p1)

let () =
  Alcotest.run "integration"
    [
      ( "end to end",
        [
          Alcotest.test_case "band-structured maps" `Quick test_covariance_maps_have_band_structure;
          Alcotest.test_case "MP factorization of covariance" `Quick
            test_mp_factorization_of_real_covariance;
          Alcotest.test_case "one pmap, numeric + simulated" `Quick
            test_same_pmap_drives_numeric_and_simulated;
          Alcotest.test_case "accuracy chain" `Quick test_accuracy_chain_end_to_end;
          Alcotest.test_case "STC accuracy cost bounded" `Quick
            test_stc_numeric_accuracy_cost_is_bounded;
          Alcotest.test_case "comm map ↔ simulator" `Quick test_comm_map_consistency_with_sim;
          Alcotest.test_case "weak scaling shape" `Quick test_scaled_summit_weak_scaling_shape;
          Alcotest.test_case "factor digests pinned" `Quick test_factor_digests_pinned;
          Alcotest.test_case "simulator strategies pinned" `Quick test_sim_strategies_pinned;
        ] );
    ]
