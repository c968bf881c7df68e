(* Fig 9: GPU occupancy over time on the H100 for the STC runs of Fig 8c,
   from the simulated execution trace. *)

open Common
module Trace = Geomix_runtime.Trace

let run (scale : scale) =
  section "fig9" "GPU occupancy on one H100 (simulated trace)";
  let machine = Machine.single_gpu Gpu.H100 in
  let ntiles = if scale.full then 55 else 40 in
  List.iter
    (fun (name, pmap) ->
      let r = run_sim ~collect_trace:true ~machine pmap in
      match r.Sim.trace with
      | None -> ()
      | Some tr ->
        let occ = Trace.occupancy_series tr ~resources:1 ~window:(r.Sim.makespan /. 24.) in
        let avg = Trace.utilisation tr ~resources:1 in
        Printf.printf "\n  %-14s (N=%d, %.2fs)  mean occupancy %.0f%%\n  " name (ntiles * nb)
          r.Sim.makespan (100. *. avg);
        Array.iter
          (fun (_, o) ->
            let bar = int_of_float (o *. 10.) in
            print_char
              (match bar with
              | b when b >= 10 -> '#'
              | 9 | 8 -> '%'
              | 7 | 6 -> '+'
              | 5 | 4 -> '-'
              | _ -> '.'))
          occ;
        Printf.printf "   (24 windows, #=100%% +=70%% .=low)\n")
    (fig8_configs ntiles);
  paper "100%% occupancy for FP64/FP32 (transfers fully overlapped); >80%% for the mixed configs"
