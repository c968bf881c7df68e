(* Fig 8: simulated performance of the precision configurations under the
   two conversion strategies on one V100, A100 and H100, across matrix
   sizes up to the platform memory limits, with efficiency vs theoretical
   peaks and the STC-over-TTC speedup. *)

open Common

let sizes_for gen (scale : scale) =
  let machine = Machine.single_gpu gen in
  let cap_fp32 =
    (* FP16-class configs store in FP32: they fit matrices ~√2 larger. *)
    int_of_float
      (sqrt (2. *. Float.pow (float_of_int (Machine.max_matrix_fp64 machine ~nb)) 2.))
    / nb
  in
  let step = if scale.full then 4 else 8 in
  let rec go acc k = if k > cap_fp32 then List.rev acc else go (k :: acc) (k + step) in
  go [] 8

let run (scale : scale) =
  section "fig8" "Precision-conversion strategies on one GPU (simulated)";
  List.iter
    (fun gen ->
      let machine = Machine.single_gpu gen in
      let gpu = Gpu.of_generation gen in
      let fp64_limit = Machine.max_matrix_fp64 machine ~nb / nb in
      Printf.printf "\n  --- %s (FP64 fits up to N=%d) ---\n" gpu.Gpu.name
        (fp64_limit * nb);
      let headers =
        [ "N"; "FP64"; "FP32"; "64/16_32 TTC"; "64/16_32 STC"; "64/16 TTC"; "64/16 STC"; "STC/TTC" ]
      in
      let rows =
        List.map
          (fun ntiles ->
            let t ?cmap config = (run_sim ?cmap ~machine config).Sim.makespan in
            let ttc config = t ~cmap:(Cm.ttc config) config in
            let cfg name = List.assoc name (fig8_configs ntiles) in
            let fp64 =
              if ntiles <= fp64_limit then
                Printf.sprintf "%s" (tflops_str (run_sim ~machine (cfg "FP64")))
              else "-"
            in
            let fp32 = tflops_str (run_sim ~machine (cfg "FP32")) in
            let h32_ttc = ttc (cfg "FP64/FP16_32") in
            let h32_stc = t (cfg "FP64/FP16_32") in
            let h16_ttc = ttc (cfg "FP64/FP16") in
            let h16_stc = t (cfg "FP64/FP16") in
            let flops = Geomix_precision.Flops.cholesky_tiled ~nt:ntiles ~nb in
            let tf t = Printf.sprintf "%.1f" (flops /. t /. 1e12) in
            [
              string_of_int (ntiles * nb);
              fp64;
              fp32;
              tf h32_ttc;
              tf h32_stc;
              tf h16_ttc;
              tf h16_stc;
              Printf.sprintf "%.2fx" (h16_ttc /. h16_stc);
            ])
          (sizes_for gen scale)
      in
      Table.print ~align:(List.map (fun _ -> Table.Right) headers) ~headers rows;
      (* Efficiency summary at the largest FP64-feasible size. *)
      let r64 =
        run_sim ~machine (Pm.uniform ~nt:fp64_limit Fp.Fp64)
      in
      let r16 =
        run_sim ~machine
          (Pm.two_level ~nt:fp64_limit ~off_diag:Fp.Fp16)
      in
      Printf.printf "  FP64 efficiency: %.1f%% of peak;  FP64/FP16 vs FP64 speedup: %.1fx\n"
        (100. *. Sim.efficiency r64 ~peak_flops_per_gpu:(Gpu.peak_flops gpu Fp.Fp64))
        (r64.Sim.makespan /. r16.Sim.makespan))
    generations;
  paper "84.2%%/85%%/62%% FP64 efficiency; STC over TTC up to 1.3x/1.41x/1.27x; 64/16 ≫ FP64"
