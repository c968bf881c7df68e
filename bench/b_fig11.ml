(* Fig 11: one full node — 6×V100 (Summit) and 8×A100 (Guyot) — precision
   configurations under both conversion strategies, plus the 1-GPU→node
   scaling factor. *)

open Common

let node_table (scale : scale) machine =
  let gpu = machine.Machine.gpu in
  let g = Machine.total_gpus machine in
  let fp64_limit = Machine.max_matrix_fp64 machine ~nb / nb in
  Printf.printf "\n  --- %s: %d x %s ---\n" machine.Machine.name g gpu.Gpu.name;
  let sizes =
    let step = if scale.full then 8 else 16 in
    let rec go acc k = if k > fp64_limit then List.rev acc else go (k :: acc) (k + step) in
    go [] 16
  in
  let headers = [ "N"; "FP64"; "FP32"; "64/16 TTC"; "64/16 STC"; "STC/TTC" ] in
  Table.print
    ~align:(List.map (fun _ -> Table.Right) headers)
    ~headers
    (List.map
       (fun ntiles ->
         let cfg name = List.assoc name (fig8_configs ntiles) in
         let r64 = run_sim ~machine (cfg "FP64") in
         let r32 = run_sim ~machine (cfg "FP32") in
         let h16 = cfg "FP64/FP16" in
         let ttc = run_sim ~cmap:(Cm.ttc h16) ~machine h16 in
         let stc = run_sim ~machine h16 in
         [
           string_of_int (ntiles * nb);
           tflops_str r64;
           tflops_str r32;
           tflops_str ttc;
           tflops_str stc;
           Printf.sprintf "%.2fx" (ttc.Sim.makespan /. stc.Sim.makespan);
         ])
       sizes);
  (* Scaling from one GPU to the node at a common size. *)
  let ntiles = Stdlib.min fp64_limit 24 in
  let one = run_sim ~machine:(Machine.single_gpu gpu.Gpu.generation)
      (Pm.uniform ~nt:ntiles Fp.Fp64) in
  let node = run_sim ~machine (Pm.uniform ~nt:ntiles Fp.Fp64) in
  Printf.printf "  1 GPU -> %d GPUs speedup at N=%d: %.2fx (linear = %d)\n" g (ntiles * nb)
    (one.Sim.makespan /. node.Sim.makespan)
    g;
  (* Efficiency summary at ~3/4 of the memory limit, clear of LRU
     thrashing at the very edge. *)
  let nt_eff = Stdlib.max 16 (3 * fp64_limit / 4) in
  let r64 = run_sim ~machine (Pm.uniform ~nt:nt_eff Fp.Fp64) in
  let r16 =
    run_sim ~machine (Pm.two_level ~nt:nt_eff ~off_diag:Fp.Fp16)
  in
  Printf.printf "  FP64 node efficiency %.1f%% (N=%d); FP64/FP16 vs FP64: %.1fx\n"
    (100. *. Sim.efficiency r64 ~peak_flops_per_gpu:(Gpu.peak_flops gpu Fp.Fp64))
    (nt_eff * nb)
    (r64.Sim.makespan /. r16.Sim.makespan)

let run (scale : scale) =
  section "fig11" "Single-node multi-GPU performance (Summit node & Guyot)";
  node_table scale (Machine.summit ());
  node_table scale (Machine.guyot ());
  paper ">80%% FP64/FP32 efficiency; STC/TTC up to 1.66x; 9.75x (Summit) / 10.9x (Guyot) FP64->FP64/FP16"
