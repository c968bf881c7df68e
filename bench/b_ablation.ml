(* Ablations beyond the paper's own experiments:
   - ablation_stc: the numerical cost of STC's extra down-conversion
     (the paper only measures its speed benefit);
   - ablation_rule: sweeping the norm-rule accuracy u_req and watching
     residual, precision mix and simulated time trade off;
   - ablation_bf16: admitting BF16_32 into the chain, which the paper
     declined because its performance matches FP16_32 on these parts. *)

open Common
module Mat = Geomix_linalg.Mat
module Check = Geomix_linalg.Check
module Tiled = Geomix_tile.Tiled
module Mp = Geomix_core.Mp_cholesky
module Covariance = Geomix_geostat.Covariance
module Locations = Geomix_geostat.Locations

let test_problem ~n ~small_nb =
  let rng = Rng.create ~seed:77 in
  let locs = Locations.morton_sort (Locations.jittered_grid_2d ~rng ~n) in
  let cov = Covariance.sqexp ~nugget:0.02 ~sigma2:1. ~beta:0.05 () in
  let dense = Covariance.build_dense cov locs in
  let tiled = Covariance.build_tiled cov locs ~nb:small_nb in
  (dense, tiled)

let residual_of ?cmap ~pmap ~dense tiled =
  let a = Tiled.copy tiled in
  Mp.factorize ?cmap ~pmap a;
  let l = Tiled.to_dense a in
  Mat.zero_upper l;
  Check.cholesky_residual ~a:dense ~l

let ablation_stc (scale : scale) =
  section "ablation_stc" "Numerical accuracy cost of STC vs TTC (not measured in the paper)";
  let n = if scale.full then 512 else 256 in
  let dense, tiled = test_problem ~n ~small_nb:32 in
  Printf.printf "  %-26s %-14s %-14s %s\n" "configuration" "TTC residual" "STC residual" "ratio";
  let compare_strategies label pmap =
    let r_ttc = residual_of ~cmap:(Cm.ttc pmap) ~pmap ~dense tiled in
    let r_stc = residual_of ~pmap ~dense tiled in
    Printf.printf "  %-26s %-14.3e %-14.3e %.2f\n" label r_ttc r_stc (r_stc /. r_ttc)
  in
  List.iter
    (fun u ->
      compare_strategies (Printf.sprintf "adaptive u_req=%.0e" u) (Pm.of_tiled ~u_req:u tiled))
    [ 1e-9; 1e-6; 1e-4 ];
  (* The extreme all-STC configurations, where FP16 data really is shipped
     to the FP64 SYRKs. *)
  let ntl = Tiled.nt tiled in
  compare_strategies "FP64/FP16_32 (all STC)" (Pm.two_level ~nt:ntl ~off_diag:Fp.Fp16_32);
  compare_strategies "FP64/FP16 (all STC)" (Pm.two_level ~nt:ntl ~off_diag:Fp.Fp16);
  note "adaptive maps: STC loses nothing (down-casts only where consumers round anyway);";
  note "extreme maps: bounded extra error from FP16 broadcasts into the FP64 SYRKs"

let ablation_rule (scale : scale) =
  section "ablation_rule" "Norm-rule threshold sweep: accuracy vs speed trade-off";
  let n = if scale.full then 512 else 256 in
  let dense, tiled = test_problem ~n ~small_nb:32 in
  let machine = Machine.single_gpu Gpu.V100 in
  Printf.printf "  %-10s %-12s %-28s %s\n" "u_req" "residual" "precision mix (64/32/h/16)" "sim time (N=61440)";
  List.iter
    (fun u ->
      let pmap = Pm.of_tiled ~u_req:u tiled in
      let r = residual_of ~pmap ~dense tiled in
      let frac p =
        match List.assoc_opt p (Pm.fractions pmap) with Some f -> 100. *. f | None -> 0.
      in
      (* A like-structured decaying matrix at simulator scale. *)
      let sim_pmap =
        Pm.of_element_fn ~u_req:u ~n:(30 * nb) ~nb (fun i j ->
          (if i = j then 1. else 0.) +. exp (-4.0e-3 *. float_of_int (abs (i - j))))
      in
      let sim = run_sim ~machine sim_pmap in
      Printf.printf "  %-10.0e %-12.3e %4.0f /%3.0f /%3.0f /%3.0f %%          %.2fs\n" u r
        (frac Fp.Fp64) (frac Fp.Fp32) (frac Fp.Fp16_32) (frac Fp.Fp16) sim.Sim.makespan)
    [ 1e-12; 1e-9; 1e-6; 1e-4; 1e-2 ]

let ablation_bf16 (scale : scale) =
  section "ablation_bf16" "Admitting BF16_32 into the precision chain";
  let n = if scale.full then 512 else 256 in
  let dense, tiled = test_problem ~n ~small_nb:32 in
  let chain_default = Fp.framework_chain in
  let chain_bf16 = [ Fp.Fp64; Fp.Fp32; Fp.Bf16_32; Fp.Fp16_32; Fp.Fp16 ] in
  List.iter
    (fun (label, chain) ->
      let pmap = Pm.of_tiled ~chain ~u_req:1e-6 tiled in
      let r = residual_of ~pmap ~dense tiled in
      Printf.printf "  %-18s residual %.3e  mix:" label r;
      List.iter
        (fun (p, f) -> Printf.printf " %s %.0f%%" (Fp.name p) (100. *. f))
        (Pm.fractions pmap);
      print_newline ())
    [ ("default chain", chain_default); ("with BF16_32", chain_bf16) ];
  note "BF16_32 tiles appear but perform identically to FP16_32 on these GPUs — the paper's reason to omit it"

let ablation_tile_size (_ : scale) =
  section "ablation_nb" "Tile-size sweep (the paper fixes nb = 2048 empirically)";
  let machine = Machine.single_gpu Gpu.V100 in
  let n_target = 61440 in
  Printf.printf "  %-8s %-8s %-12s %s\n" "nb" "NT" "FP64 time" "FP64/FP16 time";
  List.iter
    (fun tile ->
      let ntiles = Stdlib.max 2 (n_target / tile) in
      let t pmap =
        (Sim.run ~machine ~pmap ~nb:tile ()).Sim.makespan
      in
      Printf.printf "  %-8d %-8d %-12.2f %.2f\n" tile ntiles
        (t (Pm.uniform ~nt:ntiles Fp.Fp64))
        (t (Pm.two_level ~nt:ntiles ~off_diag:Fp.Fp16)))
    [ 512; 1024; 2048; 4096 ];
  note "small tiles lose kernel efficiency to POTRF/TRSM overheads; big tiles lose parallelism"

let ablation_refinement (scale : scale) =
  section "ablation_ir"
    "Iterative refinement on low-precision factors (extension; cf. related work [33])";
  let n = if scale.full then 512 else 256 in
  let dense, tiled = test_problem ~n ~small_nb:32 in
  let b = Array.init n (fun i -> sin (0.17 *. float_of_int i)) in
  Printf.printf "  %-16s %-14s %-14s %s\n" "factor" "direct resid" "refined resid" "sweeps";
  List.iter
    (fun (label, pmap) ->
      let f = Tiled.copy tiled in
      Mp.factorize ~pmap f;
      let direct = Mp.solve_lower_trans f (Mp.solve_lower f b) in
      let dres = Geomix_linalg.Check.solve_residual ~a:dense ~x:direct ~b in
      let r = Geomix_core.Refine.solve ~a:tiled ~factor:f ~b () in
      let rres = Geomix_linalg.Check.solve_residual ~a:dense ~x:r.Geomix_core.Refine.x ~b in
      Printf.printf "  %-16s %-14.3e %-14.3e %d\n" label dres rres
        r.Geomix_core.Refine.iterations)
    [
      ("FP64", Pm.uniform ~nt:(Tiled.nt tiled) Fp.Fp64);
      ("adaptive 1e-4", Pm.of_tiled ~u_req:1e-4 tiled);
      ("FP64/FP16_32", Pm.two_level ~nt:(Tiled.nt tiled) ~off_diag:Fp.Fp16_32);
      ("FP64/FP16", Pm.two_level ~nt:(Tiled.nt tiled) ~off_diag:Fp.Fp16);
    ];
  note "a few FP64 refinement sweeps recover direct-solver accuracy from reduced-precision factors"

let ablation_tlr (scale : scale) =
  section "ablation_tlr"
    "Tile low-rank + mixed precision (the paper's future work, Section VIII)";
  let n = if scale.full then 768 else 384 in
  let small_nb = 64 in
  let rng = Rng.create ~seed:88 in
  let locs =
    Geomix_geostat.Locations.morton_sort (Geomix_geostat.Locations.jittered_grid_2d ~rng ~n)
  in
  let cov = Covariance.matern ~nugget:1e-4 ~sigma2:1. ~beta:0.15 ~nu:1.5 () in
  let dense = Covariance.build_dense cov locs in
  let tiled = Covariance.build_tiled cov locs ~nb:small_nb in
  let pmap = Pm.of_tiled ~u_req:1e-6 tiled in
  Printf.printf "  %-26s %-10s %-10s %-10s %s\n" "configuration" "floats" "bytes"
    "residual" "LR tiles";
  let report label tlr =
    let mem = Geomix_tlr.Tlr.compression_ratio tlr in
    let memb = Geomix_tlr.Tlr.compression_ratio_bytes tlr in
    let frac = Geomix_tlr.Tlr.low_rank_fraction tlr in
    Geomix_tlr.Tlr.cholesky tlr;
    let l = Geomix_tlr.Tlr.to_dense tlr in
    Mat.zero_upper l;
    Printf.printf "  %-26s %-10s %-10s %-10.2e %.0f%%\n" label
      (Printf.sprintf "%.0f%%" (100. *. mem))
      (Printf.sprintf "%.0f%%" (100. *. memb))
      (Geomix_linalg.Check.cholesky_residual ~a:dense ~l)
      (100. *. frac)
  in
  report "TLR tol=1e-8" (Geomix_tlr.Tlr.compress ~tol:1e-8 tiled);
  report "TLR tol=1e-6" (Geomix_tlr.Tlr.compress ~tol:1e-6 tiled);
  report "TLR tol=1e-6 + precision" (Geomix_tlr.Tlr.compress ~precision:pmap ~tol:1e-6 tiled);
  report "TLR tol=1e-4" (Geomix_tlr.Tlr.compress ~tol:1e-4 tiled);
  (* Dense mixed-precision reference. *)
  let dense_mp =
    let a = Geomix_tile.Tiled.copy tiled in
    Mp.factorize ~pmap a;
    let l = Geomix_tile.Tiled.to_dense a in
    Mat.zero_upper l;
    Geomix_linalg.Check.cholesky_residual ~a:dense ~l
  in
  Printf.printf "  %-26s %-10s %-10s %-10.2e\n" "dense MP (u_req 1e-6)" "100%" "-" dense_mp;
  note "rank truncation and precision reduction compose; accuracy follows the looser knob"

let run scale =
  ablation_stc scale;
  ablation_rule scale;
  ablation_bf16 scale;
  ablation_tile_size scale;
  ablation_refinement scale;
  ablation_tlr scale
