(* 3D soil-moisture-style workload (the paper's 3D-sqexp application):
   build the adaptive precision map of a 3D squared-exponential covariance,
   inspect its composition, and compare simulated runtime and energy on the
   three GPU generations against FP64 — the Fig 7 / Fig 10 pipeline as a
   library user would drive it.

   Run with:  dune exec examples/soil3d.exe *)

module Rng = Geomix_util.Rng
module Fp = Geomix_precision.Fpformat
module Pm = Geomix_core.Precision_map
module Sim = Geomix_core.Sim_cholesky
module Machine = Geomix_gpusim.Machine
module Gpu = Geomix_gpusim.Gpu_specs
module Energy = Geomix_gpusim.Energy
module Locations = Geomix_geostat.Locations
module Covariance = Geomix_geostat.Covariance

let nb = 2048

let () =
  let n = 65536 in
  let rng = Rng.create ~seed:99 in
  let locs = Locations.morton_sort (Locations.jittered_grid_3d ~rng ~n) in
  let cov = Covariance.sqexp ~sigma2:1. ~beta:0.05 () in
  Printf.printf "3D squared-exponential covariance over %d sites (matrix order %d)\n\n" n n;

  (* The sampled-norm estimator scales the precision map to any order. *)
  let pmap =
    Pm.of_element_fn ~u_req:1e-8 ~n ~nb (Covariance.element cov locs)
  in
  Printf.printf "Tile precision composition at u_req = 1e-8 (the paper's 3D accuracy):\n";
  List.iter
    (fun (p, f) -> Printf.printf "  %-8s %5.1f%%\n" (Fp.name p) (100. *. f))
    (Pm.fractions pmap);
  Printf.printf "(3D fields keep most tiles in FP64/FP32 — the costliest of the three apps)\n\n";

  let fp64 = Pm.uniform ~nt:(Pm.nt pmap) Fp.Fp64 in
  Printf.printf "%-14s %12s %12s %14s %14s %10s\n" "GPU" "FP64 (s)" "MP (s)" "FP64 (J)" "MP (J)"
    "J saved";
  List.iter
    (fun gen ->
      let machine = Machine.single_gpu gen in
      let run pmap = Sim.run ~machine ~pmap ~nb () in
      let r64 = run fp64 and rmp = run pmap in
      Printf.printf "%-14s %12.2f %12.2f %14.0f %14.0f %9.1f%%\n"
        (Gpu.of_generation gen).Gpu.name r64.Sim.makespan rmp.Sim.makespan
        r64.Sim.energy.Energy.energy_joules rmp.Sim.energy.Energy.energy_joules
        (100.
        *. (1. -. (rmp.Sim.energy.Energy.energy_joules /. r64.Sim.energy.Energy.energy_joules))))
    [ Gpu.V100; Gpu.A100; Gpu.H100 ];
  Printf.printf
    "\nAs in the paper's Fig 10, the savings shrink on A100/H100, whose FP64 tensor\n\
     cores already run at the FP32 rate.\n"
