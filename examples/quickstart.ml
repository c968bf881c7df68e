(* Quickstart: generate a synthetic Gaussian field, assign tile precisions
   with the norm rule, factorize its covariance in adaptive mixed
   precision, and compare accuracy and modelled data motion against FP64.

   Run with:  dune exec examples/quickstart.exe *)

module Rng = Geomix_util.Rng
module Fp = Geomix_precision.Fpformat
module Mat = Geomix_linalg.Mat
module Check = Geomix_linalg.Check
module Tiled = Geomix_tile.Tiled
module Pm = Geomix_core.Precision_map
module Cm = Geomix_core.Comm_map
module Mp = Geomix_core.Mp_cholesky
module Sim = Geomix_core.Sim_cholesky
module Machine = Geomix_gpusim.Machine
module Gpu = Geomix_gpusim.Gpu_specs
module Locations = Geomix_geostat.Locations
module Covariance = Geomix_geostat.Covariance
module Field = Geomix_geostat.Field

let () =
  (* 1. Synthetic spatial data: 400 sites in the unit square, Matérn
        covariance with rough smoothness (the paper's ν = 0.5). *)
  let rng = Rng.create ~seed:42 in
  let locs = Locations.morton_sort (Locations.jittered_grid_2d ~rng ~n:400) in
  let cov = Covariance.matern ~sigma2:1. ~beta:0.1 ~nu:0.5 () in
  let z = Field.synthesize ~rng ~cov locs in
  Printf.printf "Generated %d observations; z(0) = %.4f\n\n" (Array.length z) z.(0);

  (* 2. Tile the covariance matrix and assign kernel precisions with the
        Higham–Mary norm rule at an application accuracy of 1e-6. *)
  let a = Covariance.build_tiled cov locs ~nb:50 in
  let pmap = Pm.of_tiled ~u_req:1e-6 a in
  Printf.printf "Tile precision map (u_req = 1e-6):\n%s\n" (Pm.render pmap);

  (* 3. The automated conversion strategy (Algorithm 2): which broadcasts
        can down-convert at the sender. *)
  let cmap = Cm.compute pmap in
  Printf.printf "Communication map: %.1f%% of broadcasting tiles use STC\n\n"
    (100. *. Cm.stc_fraction cmap);

  (* 4. Factorize in mixed precision and check the result. *)
  let dense = Covariance.build_dense cov locs in
  let l = Tiled.copy a in
  Mp.factorize ~pmap l;
  let lm = Tiled.to_dense l in
  Mat.zero_upper lm;
  Printf.printf "Mixed-precision Cholesky residual: %.3e (FP64 reference: ~1e-16)\n"
    (Check.cholesky_residual ~a:dense ~l:lm);

  (* 5. Use the factor: log-determinant and a linear solve. *)
  let y = Mp.solve_lower l z in
  let quad = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. y in
  Printf.printf "log|Sigma| = %.4f,   z' Sigma^-1 z = %.4f\n\n" (Mp.log_det l) quad;

  (* 6. What would this cost on a real GPU?  Same precision map, simulated
        V100, both conversion strategies: Algorithm 2's communication map
        (the default) and the always-TTC map. *)
  let machine = Machine.single_gpu Gpu.V100 in
  let sim ?cmap () = Sim.run ?cmap ~machine ~pmap ~nb:2048 () in
  let stc = sim () and ttc = sim ~cmap:(Cm.ttc pmap) () in
  let fp64 =
    Sim.run ~machine ~pmap:(Pm.uniform ~nt:(Pm.nt pmap) Fp.Fp64) ~nb:2048 ()
  in
  Printf.printf "Simulated on one V100 at tile size 2048 (matrix order %d):\n" stc.Sim.n;
  Printf.printf "  FP64:              %6.2f s  (%5.1f Tflop/s)\n" fp64.Sim.makespan
    fp64.Sim.tflops;
  Printf.printf "  adaptive MP (TTC): %6.2f s  (%5.1f Tflop/s)\n" ttc.Sim.makespan
    ttc.Sim.tflops;
  Printf.printf "  adaptive MP (STC): %6.2f s  (%5.1f Tflop/s), %d conversions vs %d\n"
    stc.Sim.makespan stc.Sim.tflops stc.Sim.conversions ttc.Sim.conversions;
  Printf.printf "  speedup vs FP64: %.2fx;  STC vs TTC: %.2fx\n"
    (fp64.Sim.makespan /. stc.Sim.makespan)
    (ttc.Sim.makespan /. stc.Sim.makespan)
