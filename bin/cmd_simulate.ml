(* geomix simulate: a mixed-precision Cholesky on a modelled GPU machine. *)

open Cmdliner
open Cli
module Sim = Geomix_core.Sim_cholesky
module Machine = Geomix_gpusim.Machine
module Gpu = Geomix_gpusim.Gpu_specs
module Energy = Geomix_gpusim.Energy

let run machine nodes ntiles config strategy nb trace_json gantt =
  let machine =
    match machine with
    | `V100 -> Machine.single_gpu Gpu.V100
    | `A100 -> Machine.single_gpu Gpu.A100
    | `H100 -> Machine.single_gpu Gpu.H100
    | `Summit -> Machine.summit ~nodes ()
    | `Guyot -> Machine.guyot ()
  in
  let pmap = pmap_of_config ~ntiles config in
  let collect_trace = gantt || trace_json <> None in
  let cmap = match strategy with `Stc -> None | `Ttc -> Some (Geomix_core.Comm_map.ttc pmap) in
  let r = Sim.run ~collect_trace ?cmap ~machine ~pmap ~nb () in
  Printf.printf "machine          %s (%d GPUs)\n" r.Sim.machine_name r.Sim.ngpus;
  Printf.printf "matrix           %d (tile %d)\n" r.Sim.n r.Sim.nb;
  Printf.printf "makespan         %.3f s\n" r.Sim.makespan;
  Printf.printf "performance      %.1f Tflop/s (utilisation %.0f%%)\n" r.Sim.tflops
    (100. *. r.Sim.utilisation);
  Printf.printf "data motion      h2d %s, d2d %s, inter-node %s, %d conversions\n"
    (fb r.Sim.bytes_h2d) (fb r.Sim.bytes_d2d) (fb r.Sim.bytes_nic) r.Sim.conversions;
  Printf.printf "energy           %.0f J (%.2f Gflops/W)\n" r.Sim.energy.Energy.energy_joules
    r.Sim.energy.Energy.gflops_per_watt;
  Option.iter
    (show_trace ~label:"trace           " ~resources:r.Sim.ngpus trace_json gantt)
    r.Sim.trace

let cmd =
  let machine_conv =
    Arg.enum
      [ ("v100", `V100); ("a100", `A100); ("h100", `H100); ("summit", `Summit); ("guyot", `Guyot) ]
  in
  let machine_arg =
    Arg.(value & opt machine_conv `V100 & info [ "machine" ] ~doc:"v100|a100|h100|summit|guyot.")
  in
  let nodes_arg = Arg.(value & opt int 1 & info [ "nodes" ] ~doc:"Summit node count.") in
  let strategy_arg =
    Arg.(value & opt (enum [ ("stc", `Stc); ("ttc", `Ttc) ]) `Stc & info [ "strategy" ] ~doc:"stc|ttc.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a mixed-precision Cholesky on a modelled GPU machine")
    Term.(
      const run $ machine_arg $ nodes_arg $ nt_arg 24 $ config_arg `Fp64 $ strategy_arg
      $ nb_arg 2048
      $ trace_json_arg ~doc:"Write a Chrome trace-event JSON of the schedule."
      $ gantt_arg ~doc:"Print an ASCII Gantt chart of the schedule.")
