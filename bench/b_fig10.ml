(* Fig 10: power consumption and energy of the FP64 Cholesky vs the
   adaptive mixed-precision approach for the three applications, on one
   GPU of each generation.  Matrix sizes follow the paper's rule: the
   largest FP64 matrix that fits on the V100; host-memory-capped 122 880
   on A100/H100 (here via the same sizing rule). *)

open Common
module Energy = Geomix_gpusim.Energy

let run (scale : scale) =
  section "fig10" "Power and energy: FP64 vs adaptive mixed precision";
  List.iter
    (fun gen ->
      let machine = Machine.single_gpu gen in
      let gpu = Gpu.of_generation gen in
      let ntiles =
        let cap = Machine.max_matrix_fp64 machine ~nb / nb in
        if scale.full then cap else Stdlib.min cap 30
      in
      let n = ntiles * nb in
      Printf.printf "\n  --- %s, N = %d ---\n" gpu.Gpu.name n;
      let report label r =
        Printf.printf "    %-12s time %8.2fs  energy %10.0f J  avg %6.0f W  %8.2f Gflops/W\n"
          label r.Sim.makespan r.Sim.energy.Energy.energy_joules
          r.Sim.energy.Energy.avg_power r.Sim.energy.Energy.gflops_per_watt
      in
      let r64 = run_sim ~machine (Pm.uniform ~nt:ntiles Fp.Fp64) in
      report "FP64" r64;
      List.iter
        (fun app ->
          let pmap = app_precision_map app ~n in
          let r = run_sim ~machine pmap in
          report app.app_name r;
          Printf.printf "      energy saving vs FP64: %.1f%%\n"
            (100. *. (1. -. (r.Sim.energy.Energy.energy_joules /. r64.Sim.energy.Energy.energy_joules))))
        applications;
      (* Power-vs-time series for the FP64 run (the nvidia-smi style plot). *)
      let rt =
        run_sim ~collect_trace:true ~machine
          (Pm.uniform ~nt:(Stdlib.min ntiles 24) Fp.Fp64)
      in
      match rt.Sim.trace with
      | None -> ()
      | Some tr ->
        let series = Energy.power_series gpu tr ~ngpus:1 ~window:(rt.Sim.makespan /. 16.) in
        Printf.printf "    FP64 power trace (W, 16 windows, TDP %.0f):" gpu.Gpu.tdp;
        Array.iter (fun (_, w) -> Printf.printf " %.0f" w) series;
        print_newline ())
    generations;
  paper "MP saves most on V100; less on A100/H100 (FP64 uses tensor cores there); 3D-sqexp saves least"
