(* Fig 12: performance on the (simulated) Summit supercomputer —
   (a) weak scalability with memory-proportional sizing,
   (b) strong scalability on a fixed matrix,
   (c) the mixed-precision effect on 64 nodes / 384 GPUs. *)

open Common

let weak (scale : scale) =
  Printf.printf "\n  (a) Weak scalability (tiles per GPU held constant)\n";
  let nodes_list = if scale.full then [ 1; 2; 4; 8; 16; 32; 64 ] else [ 1; 2; 4; 8; 16 ] in
  let headers = [ "nodes"; "GPUs"; "N"; "time (s)"; "aggregate Tflop/s"; "per-GPU" ] in
  Table.print
    ~align:(List.map (fun _ -> Table.Right) headers)
    ~headers
    (List.map
       (fun nodes ->
         let g = nodes * 6 in
         let ntiles = int_of_float (Float.round (sqrt (400. *. float_of_int g))) in
         let machine = Machine.summit ~nodes () in
         let r = run_sim ~machine (Pm.uniform ~nt:ntiles Fp.Fp64) in
         [
           string_of_int nodes;
           string_of_int g;
           string_of_int (ntiles * nb);
           Printf.sprintf "%.1f" r.Sim.makespan;
           tflops_str r;
           Printf.sprintf "%.2f" (r.Sim.tflops /. float_of_int g);
         ])
       nodes_list)

let strong (scale : scale) =
  let ntiles = if scale.full then 390 else 196 in
  Printf.printf "\n  (b) Strong scalability, fixed matrix N = %d (paper: 798720)\n" (ntiles * nb);
  let nodes_list = if scale.full then [ 4; 8; 16; 32; 64 ] else [ 2; 4; 8; 16 ] in
  let headers = [ "nodes"; "GPUs"; "time (s)"; "aggregate Tflop/s"; "efficiency" ] in
  Table.print
    ~align:(List.map (fun _ -> Table.Right) headers)
    ~headers
    (List.map
       (fun nodes ->
         let machine = Machine.summit ~nodes () in
         let r = run_sim ~machine (Pm.uniform ~nt:ntiles Fp.Fp64) in
         [
           string_of_int nodes;
           string_of_int (nodes * 6);
           Printf.sprintf "%.1f" r.Sim.makespan;
           tflops_str r;
           Table.fmt_pct (Sim.efficiency r ~peak_flops_per_gpu:(Gpu.peak_flops Gpu.v100 Fp.Fp64));
         ])
       nodes_list)

let mp_effect (scale : scale) =
  let nodes = if scale.full then 64 else 16 in
  let machine = Machine.summit ~nodes () in
  let g = Machine.total_gpus machine in
  Printf.printf "\n  (c) Mixed-precision effect on %d nodes (%d GPUs)\n" nodes g;
  let sizes =
    if scale.full then [ 192; 288; 390 ] else [ 96; 144; 196 ]
  in
  let headers = [ "N"; "FP64"; "FP32"; "2D-sqexp"; "2D-Matern"; "3D-sqexp"; "best/FP64" ] in
  Table.print
    ~align:(List.map (fun _ -> Table.Right) headers)
    ~headers
    (List.map
       (fun ntiles ->
         let n = ntiles * nb in
         let t64 = run_sim ~machine (Pm.uniform ~nt:ntiles Fp.Fp64) in
         let t32 = run_sim ~machine (Pm.uniform ~nt:ntiles Fp.Fp32) in
         let apps =
           List.map
             (fun app ->
               run_sim ~machine (app_precision_map app ~n))
             applications
         in
         let best =
           List.fold_left (fun acc r -> Float.min acc r.Sim.makespan) t32.Sim.makespan apps
         in
         string_of_int n
         :: tflops_str t64
         :: tflops_str t32
         :: (List.map tflops_str apps
            @ [ Printf.sprintf "%.1fx" (t64.Sim.makespan /. best) ]))
       sizes)

let run (scale : scale) =
  section "fig12" "Scalability on the simulated Summit supercomputer";
  weak scale;
  strong scale;
  mp_effect scale;
  paper
    "near-linear weak scaling; strong scaling trails off at 384 GPUs (running out of work); \
     up to 3.2x MP speedup over FP64, 2D-sqexp best, 3D-sqexp worst"
