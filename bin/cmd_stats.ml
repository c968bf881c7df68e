(* geomix stats: exact bytes on the wire of a tile Cholesky, optionally with
   a real instrumented run. *)

open Cmdliner
open Cli
module Cm = Geomix_core.Comm_map

let run ntiles config nb run_real run_nb workers trace_json gantt format verbose =
  let pmap = pmap_of_config ~ntiles config in
  let cm = Cm.compute pmap in
  let m = Cm.motion cm pmap ~nb in
  Printf.printf "Data motion of one NT=%d (nb=%d) tile Cholesky — %d broadcast transfers\n"
    ntiles nb m.Cm.transfers;
  Printf.printf "  bytes moved, STC (automated)  %10s   (%d conversion kernels)\n"
    (fb m.Cm.bytes_stc) m.Cm.conv_stc;
  Printf.printf "  bytes moved, TTC (prior art)  %10s   (%d conversion kernels)\n"
    (fb m.Cm.bytes_ttc) m.Cm.conv_ttc;
  Printf.printf "  bytes moved, all-FP64         %10s\n" (fb m.Cm.bytes_fp64);
  Printf.printf "  STC saves %.1f%% vs TTC and %.1f%% vs FP64; %.1f%% of broadcasting tiles ship STC\n"
    (100. *. (1. -. (m.Cm.bytes_stc /. m.Cm.bytes_ttc)))
    (100. *. (1. -. (m.Cm.bytes_stc /. m.Cm.bytes_fp64)))
    (100. *. Cm.stc_fraction cm);
  if run_real then begin
    let reg = Metrics.create () in
    attach_stderr_of ~verbose reg;
    let r = measured_run ~reg ?workers ~pmap ~nb:run_nb () in
    Printf.printf "\nReal factorization: n=%d (nb=%d), %d worker(s), %.3f s wall clock\n"
      r.n run_nb r.workers r.wall;
    print_metrics format reg;
    show_trace ~label:"trace" ~resources:r.workers trace_json gantt r.trace
  end

let cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Report exact bytes-on-the-wire (STC vs TTC vs all-FP64) for a tile Cholesky, \
          optionally measuring a real instrumented run")
    Term.(
      const run $ nt_arg 24 $ config_arg `Mixed16_32 $ nb_arg 2048
      $ run_arg
          ~doc:
            "Also execute a real (emulated-precision) factorization of a small SPD \
             matrix on an instrumented pool and report the measured pool metrics."
      $ run_nb_arg $ workers_arg " for --run"
      $ trace_json_arg ~doc:"Write a Chrome trace-event JSON of the real --run schedule."
      $ gantt_arg ~doc:"Print an ASCII Gantt chart of the real --run schedule."
      $ metrics_format_arg $ verbose_arg)
