(* Shared infrastructure of the reproduction harness. *)

module Fp = Geomix_precision.Fpformat
module Table = Geomix_util.Table
module Rng = Geomix_util.Rng
module Gpu = Geomix_gpusim.Gpu_specs
module Machine = Geomix_gpusim.Machine
module Pm = Geomix_core.Precision_map
module Sim = Geomix_core.Sim_cholesky
module Cm = Geomix_core.Comm_map

type scale = { full : bool }

let nb = 2048
(* The paper's empirically-optimal tile size (Section VII-A). *)

let section id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "[%s] %s\n" id title;
  Printf.printf "================================================================\n%!"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  note: %s\n%!" s) fmt

let paper fmt = Printf.ksprintf (fun s -> Printf.printf "  paper: %s\n%!" s) fmt

let generations = [ Gpu.V100; Gpu.A100; Gpu.H100 ]

(* The four precision configurations of Fig 8. *)
let fig8_configs ntiles =
  [
    ("FP64", Pm.uniform ~nt:ntiles Fp.Fp64);
    ("FP32", Pm.uniform ~nt:ntiles Fp.Fp32);
    ("FP64/FP16_32", Pm.two_level ~nt:ntiles ~off_diag:Fp.Fp16_32);
    ("FP64/FP16", Pm.two_level ~nt:ntiles ~off_diag:Fp.Fp16);
  ]

(* [?cmap] is the conversion strategy: Algorithm 2's map by default,
   [Comm_map.ttc pmap] for the always-TTC baseline. *)
let run_sim ?collect_trace ?cmap ~machine pmap =
  Sim.run ?collect_trace ?cmap ~machine ~pmap ~nb ()

let tflops_str r = Printf.sprintf "%.1f" r.Sim.tflops

(* The three applications of the evaluation and their required accuracies
   (Section VII-C): the covariance element function over Morton-ordered
   synthetic sites, scaled to any matrix order. *)
type application = {
  app_name : string;
  dims : int;
  u_req : float;
  cov_of : Geomix_geostat.Locations.t -> int -> int -> float;
}

(* Correlation ranges calibrated so the tile-precision composition at the
   operating accuracies reproduces Fig 7's percentages (see EXPERIMENTS.md). *)
let app_2d_sqexp =
  let cov = Geomix_geostat.Covariance.sqexp ~sigma2:1. ~beta:0.1 () in
  {
    app_name = "2D-sqexp";
    dims = 2;
    u_req = 1e-4;
    cov_of = (fun locs -> Geomix_geostat.Covariance.element cov locs);
  }

let app_2d_matern =
  let cov = Geomix_geostat.Covariance.matern ~sigma2:1. ~beta:0.03 ~nu:0.5 () in
  {
    app_name = "2D-Matern";
    dims = 2;
    u_req = 1e-9;
    cov_of = (fun locs -> Geomix_geostat.Covariance.element cov locs);
  }

let app_3d_sqexp =
  let cov = Geomix_geostat.Covariance.sqexp ~sigma2:1. ~beta:0.05 () in
  {
    app_name = "3D-sqexp";
    dims = 3;
    u_req = 1e-8;
    cov_of = (fun locs -> Geomix_geostat.Covariance.element cov locs);
  }

let applications = [ app_2d_sqexp; app_2d_matern; app_3d_sqexp ]

(* Sampled-norm precision map of an application at matrix order n — the
   route that scales to the paper's 409 600-order maps. *)
let app_precision_map app ~n =
  let rng = Rng.create ~seed:4242 in
  let locs =
    if app.dims = 2 then Geomix_geostat.Locations.jittered_grid_2d ~rng ~n
    else Geomix_geostat.Locations.jittered_grid_3d ~rng ~n
  in
  let locs = Geomix_geostat.Locations.morton_sort locs in
  Pm.of_element_fn ~u_req:app.u_req ~n ~nb (app.cov_of locs)
