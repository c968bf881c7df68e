(* geomix — command-line front end to the library: precision maps,
   simulated cluster runs, MLE fits and GEMM accuracy probes. *)

open Cmdliner
module Fp = Geomix_precision.Fpformat
module Rng = Geomix_util.Rng
module Pm = Geomix_core.Precision_map
module Cm = Geomix_core.Comm_map
module Sim = Geomix_core.Sim_cholesky
module Machine = Geomix_gpusim.Machine
module Gpu = Geomix_gpusim.Gpu_specs
module Energy = Geomix_gpusim.Energy
module Locations = Geomix_geostat.Locations
module Covariance = Geomix_geostat.Covariance
module Field = Geomix_geostat.Field
module Likelihood = Geomix_geostat.Likelihood
module Mle = Geomix_geostat.Mle

(* Shared argument helpers *)

let family_conv =
  Arg.enum
    [
      ("sqexp", Covariance.Sqexp);
      ("matern", Covariance.Matern);
      ("powexp", Covariance.Powexp);
      ("spherical", Covariance.Spherical);
    ]

let family_arg =
  Arg.(
    value
    & opt family_conv Covariance.Sqexp
    & info [ "family" ] ~doc:"Covariance family: sqexp or matern.")

let beta_arg = Arg.(value & opt float 0.1 & info [ "beta" ] ~doc:"Range parameter β.")
let sigma2_arg = Arg.(value & opt float 1.0 & info [ "sigma2" ] ~doc:"Variance parameter σ².")
let nu_arg = Arg.(value & opt float 0.5 & info [ "nu" ] ~doc:"Matérn smoothness ν.")
let nugget_arg =
  Arg.(value & opt float Covariance.default_nugget & info [ "nugget" ] ~doc:"Diagonal nugget τ².")
let dims_arg = Arg.(value & opt int 2 & info [ "dims" ] ~doc:"Spatial dimension (2 or 3).")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")
let u_req_arg =
  Arg.(value & opt float 1e-6 & info [ "u-req" ] ~doc:"Application accuracy for the norm rule.")
let nb_arg = Arg.(value & opt int 2048 & info [ "nb" ] ~doc:"Tile size.")

let config_conv =
  Arg.enum
    [ ("fp64", `Fp64); ("fp32", `Fp32); ("fp64-fp16", `Mixed16); ("fp64-fp16-32", `Mixed16_32) ]

let config_name = function
  | `Fp64 -> "fp64"
  | `Fp32 -> "fp32"
  | `Mixed16 -> "fp64-fp16"
  | `Mixed16_32 -> "fp64-fp16-32"

(* Telemetry verbosity: --verbose streams Debug-level events to stderr;
   otherwise GEOMIX_LOG=debug|info|warn|error selects the level; otherwise
   the subcommand runs without a bus and pays nothing. *)

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose" ]
        ~doc:
          "Stream telemetry events to stderr at debug level.  Without this \
           flag, the $(b,GEOMIX_LOG) environment variable \
           (debug|info|warn|error) selects the stderr level; unset means no \
           event streaming.")

(* The stderr sink --verbose or GEOMIX_LOG asks for, on the run's registry. *)
let attach_stderr_of ~verbose reg =
  let module Events = Geomix_obs.Events in
  let level = if verbose then Some Events.Debug else Events.env_level () in
  let events = Geomix_obs.Metrics.events reg in
  Option.iter (fun min_level -> Events.attach_stderr ~min_level events) level

let pmap_of_config ~ntiles = function
  | `Fp64 -> Pm.uniform ~nt:ntiles Fp.Fp64
  | `Fp32 -> Pm.uniform ~nt:ntiles Fp.Fp32
  | `Mixed16 -> Pm.two_level ~nt:ntiles ~off_diag:Fp.Fp16
  | `Mixed16_32 -> Pm.two_level ~nt:ntiles ~off_diag:Fp.Fp16_32

let config_arg default =
  Arg.(
    value & opt config_conv default
    & info [ "config" ] ~doc:"fp64|fp32|fp64-fp16|fp64-fp16-32.")

let nt_arg default = Arg.(value & opt int default & info [ "nt" ] ~doc:"Tiles per dimension.")

(* [scope] qualifies the help of commands that only start a pool under --run. *)
let workers_arg scope =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~doc:("Pool worker domains" ^ scope ^ " (default: cores - 1)."))

(* Covariance-like SPD test matrix: decaying off-diagonal mass.  Every real
   factorization the CLI runs on synthetic data uses it. *)
let spd_test_matrix ~n ~nb =
  Geomix_tile.Tiled.init ~n ~nb (fun i j ->
      (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))

let sites ~dims ~seed ~n =
  let rng = Rng.create ~seed in
  Locations.morton_sort
    (if dims = 3 then Locations.jittered_grid_3d ~rng ~n
     else Locations.jittered_grid_2d ~rng ~n)

(* precision-map subcommand *)

let precision_map_cmd =
  let run family sigma2 beta nu nugget dims seed u_req n nb render =
    let cov = Covariance.of_family ~nugget family ~sigma2 ~beta ~nu in
    let locs = sites ~dims ~seed ~n in
    let pmap = Pm.of_element_fn ~u_req ~n ~nb (Covariance.element cov locs) in
    Printf.printf "Precision map: order %d, tile %d, %dx%d tiles, u_req %.1e\n" n nb
      (Pm.nt pmap) (Pm.nt pmap) u_req;
    List.iter
      (fun (p, f) -> Printf.printf "  %-8s %5.1f%%\n" (Fp.name p) (100. *. f))
      (Pm.fractions pmap);
    if render && Pm.nt pmap <= 64 then print_string (Pm.render pmap);
    let cm = Cm.compute pmap in
    Printf.printf "Automated conversion: %.1f%% of broadcasting tiles use STC\n"
      (100. *. Cm.stc_fraction cm)
  in
  let n_arg = Arg.(value & opt int 65536 & info [ "order" ] ~doc:"Matrix order / site count.") in
  let render_arg = Arg.(value & flag & info [ "render" ] ~doc:"Draw the tile map (small maps).") in
  Cmd.v
    (Cmd.info "precision-map" ~doc:"Compute the adaptive tile-precision map of a covariance")
    Term.(
      const run $ family_arg $ sigma2_arg $ beta_arg $ nu_arg $ nugget_arg $ dims_arg
      $ seed_arg $ u_req_arg $ n_arg $ nb_arg $ render_arg)

(* simulate subcommand *)

let simulate_cmd =
  let machine_conv =
    Arg.enum
      [ ("v100", `V100); ("a100", `A100); ("h100", `H100); ("summit", `Summit); ("guyot", `Guyot) ]
  in
  let strategy_conv = Arg.enum [ ("stc", `Stc); ("ttc", `Ttc) ] in
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
    let cmap = match strategy with `Stc -> None | `Ttc -> Some (Cm.ttc pmap) in
    let r = Sim.run ~collect_trace ?cmap ~machine ~pmap ~nb () in
    Printf.printf "machine          %s (%d GPUs)\n" r.Sim.machine_name r.Sim.ngpus;
    Printf.printf "matrix           %d (tile %d)\n" r.Sim.n r.Sim.nb;
    Printf.printf "makespan         %.3f s\n" r.Sim.makespan;
    Printf.printf "performance      %.1f Tflop/s (utilisation %.0f%%)\n" r.Sim.tflops
      (100. *. r.Sim.utilisation);
    Printf.printf "data motion      h2d %s, d2d %s, inter-node %s, %d conversions\n"
      (Geomix_util.Table.fmt_bytes r.Sim.bytes_h2d)
      (Geomix_util.Table.fmt_bytes r.Sim.bytes_d2d)
      (Geomix_util.Table.fmt_bytes r.Sim.bytes_nic)
      r.Sim.conversions;
    Printf.printf "energy           %.0f J (%.2f Gflops/W)\n" r.Sim.energy.Energy.energy_joules
      r.Sim.energy.Energy.gflops_per_watt;
    (match r.Sim.trace with
    | Some tr ->
      (match trace_json with
      | Some path ->
        let oc = open_out path in
        output_string oc (Geomix_runtime.Trace.to_chrome_json tr);
        close_out oc;
        Printf.printf "trace            written to %s (chrome://tracing)\n" path
      | None -> ());
      if gantt then
        print_string (Geomix_runtime.Trace.gantt tr ~resources:r.Sim.ngpus ~width:72)
    | None -> ())
  in
  let machine_arg =
    Arg.(value & opt machine_conv `V100 & info [ "machine" ] ~doc:"v100|a100|h100|summit|guyot.")
  in
  let nodes_arg = Arg.(value & opt int 1 & info [ "nodes" ] ~doc:"Summit node count.") in
  let strategy_arg =
    Arg.(value & opt strategy_conv `Stc & info [ "strategy" ] ~doc:"stc|ttc.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~doc:"Write a Chrome trace-event JSON of the schedule.")
  in
  let gantt_arg =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart of the schedule.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a mixed-precision Cholesky on a modelled GPU machine")
    Term.(
      const run $ machine_arg $ nodes_arg $ nt_arg 24 $ config_arg `Fp64 $ strategy_arg
      $ nb_arg
      $ trace_arg $ gantt_arg)

(* stats subcommand *)

let stats_cmd =
  let module Metrics = Geomix_obs.Metrics in
  let module Tiled = Geomix_tile.Tiled in
  let module Trace = Geomix_runtime.Trace in
  let fb = Geomix_util.Table.fmt_bytes in
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
      let profile = Geomix_obs.Profile.collector () in
      let n = ntiles * run_nb in
      let a = spd_test_matrix ~n ~nb:run_nb in
      let resources = ref 1 in
      let t0 = Unix.gettimeofday () in
      Geomix_parallel.Pool.with_pool ~obs:reg ?num_workers:workers (fun pool ->
        resources := Stdlib.max 1 (Geomix_parallel.Pool.num_workers pool);
        Geomix_core.Mp_cholesky.factorize ~pool ~profile ~obs:reg ~pmap a);
      let dt = Unix.gettimeofday () -. t0 in
      let trace = Trace.of_measures (Geomix_obs.Profile.measures profile) in
      Printf.printf "\nReal factorization: n=%d (nb=%d), %d worker(s), %.3f s wall clock\n"
        n run_nb !resources dt;
      let snap = Metrics.snapshot reg in
      print_string
        (match format with
        | `Table -> Metrics.to_table snap
        | `Csv -> Metrics.to_csv snap
        | `Json -> Metrics.to_json_string snap ^ "\n");
      (match trace_json with
      | Some path ->
        let oc = open_out path in
        output_string oc (Trace.to_chrome_json trace);
        close_out oc;
        Printf.printf "trace written to %s (chrome://tracing)\n" path
      | None -> ());
      if gantt then print_string (Trace.gantt trace ~resources:!resources ~width:72)
    end
  in
  let run_arg =
    Arg.(
      value & flag
      & info [ "run" ]
          ~doc:
            "Also execute a real (emulated-precision) factorization of a small SPD \
             matrix on an instrumented pool and report the measured pool metrics.")
  in
  let run_nb_arg =
    Arg.(value & opt int 32 & info [ "run-nb" ] ~doc:"Tile size of the real --run matrix.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~doc:"Write a Chrome trace-event JSON of the real --run schedule.")
  in
  let gantt_arg =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart of the real --run schedule.")
  in
  let format_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("table", `Table); ("csv", `Csv); ("json", `Json) ]) `Table
      & info [ "format" ] ~doc:"Metric output: table, csv or json.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Report exact bytes-on-the-wire (STC vs TTC vs all-FP64) for a tile Cholesky, \
          optionally measuring a real instrumented run")
    Term.(
      const run $ nt_arg 24 $ config_arg `Mixed16_32 $ nb_arg $ run_arg $ run_nb_arg
      $ workers_arg " for --run"
      $ trace_arg $ gantt_arg $ format_arg $ verbose_arg)

(* mle subcommand *)

let mle_cmd =
  let run family sigma2 beta nu nugget dims seed n u_req exact max_evals =
    let truth = Covariance.of_family ~nugget family ~sigma2 ~beta ~nu in
    let locs = sites ~dims ~seed ~n in
    let rng = Rng.create ~seed:(seed + 1) in
    let z = Field.synthesize ~rng ~cov:truth locs in
    let engine =
      if exact then Likelihood.Exact
      else Likelihood.mixed ~u_req ~nb:(Stdlib.max 32 (n / 8)) ()
    in
    let t0 = Unix.gettimeofday () in
    let f =
      Mle.fit
        ~settings:{ Mle.default_settings with max_evals }
        ~nugget ~engine ~family ~locs ~z ()
    in
    Printf.printf "engine       %s\n" (if exact then "exact FP64" else Printf.sprintf "mixed precision (u_req %.0e)" u_req);
    Printf.printf "true theta   [%s]\n"
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%g") (Covariance.theta truth))));
    Printf.printf "estimate     [%s]\n"
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.4f") f.Mle.theta)));
    Printf.printf "loglik       %.3f\n" f.Mle.loglik;
    Printf.printf "evaluations  %d (%.1fs)\n" f.Mle.evals (Unix.gettimeofday () -. t0)
  in
  let n_arg = Arg.(value & opt int 196 & info [ "sites" ] ~doc:"Number of sites.") in
  let exact_arg = Arg.(value & flag & info [ "exact" ] ~doc:"Use the exact FP64 engine.") in
  let max_evals_arg =
    Arg.(value & opt int 150 & info [ "max-evals" ] ~doc:"Likelihood evaluation budget.")
  in
  Cmd.v
    (Cmd.info "mle" ~doc:"Fit covariance parameters to a synthetic dataset by MLE")
    Term.(
      const run $ family_arg $ sigma2_arg $ beta_arg $ nu_arg $ nugget_arg $ dims_arg
      $ seed_arg $ n_arg $ u_req_arg $ exact_arg $ max_evals_arg)

(* gemm subcommand *)

let gemm_cmd =
  let prec_conv =
    Arg.enum (List.map (fun p -> (String.lowercase_ascii (Fp.name p), p)) Fp.all)
  in
  let run prec n seed =
    let rng = Rng.create ~seed in
    let err = Geomix_linalg.Blas_emul.gemm_accuracy ~prec ~n ~rng in
    Printf.printf "emulated %s GEMM, n=%d: relative error vs FP64 = %.3e\n" (Fp.name prec) n err;
    List.iter
      (fun gen ->
        let gpu = Gpu.of_generation gen in
        if Gpu.supports gpu prec then begin
          let t = Geomix_gpusim.Exec_model.gemm_time gpu ~prec ~n:2048 () in
          Printf.printf "modelled 2048-GEMM on %-14s %.3f ms (%.1f Tflop/s)\n" gpu.Gpu.name
            (1e3 *. t)
            (Geomix_precision.Flops.gemm_full ~m:2048 ~n:2048 ~k:2048 /. t /. 1e12)
        end)
      [ Gpu.V100; Gpu.A100; Gpu.H100 ]
  in
  let n_arg = Arg.(value & opt int 128 & info [ "size" ] ~doc:"Matrix order for the accuracy probe.") in
  let prec_arg = Arg.(value & opt prec_conv Fp.Fp16 & info [ "prec" ] ~doc:"Precision.") in
  Cmd.v
    (Cmd.info "gemm" ~doc:"Probe emulated GEMM accuracy and modelled performance")
    Term.(const run $ prec_arg $ n_arg $ seed_arg)

(* chaos subcommand *)

let chaos_cmd =
  let module Metrics = Geomix_obs.Metrics in
  let module Tiled = Geomix_tile.Tiled in
  let module Fault = Geomix_fault.Fault in
  let module Retry = Geomix_fault.Retry in
  let module Chol = Geomix_core.Mp_cholesky in
  let module Guard = Geomix_integrity.Guard in
  let kind_conv =
    Arg.enum
      [
        ("transient", Fault.Transient);
        ("crash", Fault.Crash_after_write);
        ("stall", Fault.Stall);
        ("sdc", Fault.Sdc);
      ]
  in
  let run seed ntiles config nb rate pivot_rate kinds sdc attempts workers format
      metrics_out verbose =
    let reg = Metrics.create () in
    attach_stderr_of ~verbose reg;
    let n = ntiles * nb in
    let a = spd_test_matrix ~n ~nb in
    let pmap = pmap_of_config ~ntiles config in
    let kinds =
      if sdc && not (List.mem Fault.Sdc kinds) then kinds @ [ Fault.Sdc ] else kinds
    in
    let faults =
      Fault.plan ~obs:reg ~rate ~kinds ~pivot_rate ~sleep:ignore ~seed ()
    in
    (* The guard (with snapshots, so detected corruptions are repairable in
       place) rides along whenever SDC is armed. *)
    let integrity =
      if List.mem Fault.Sdc kinds then
        Some (Guard.create ~obs:reg ~snapshots:true ())
      else None
    in
    let retry = Retry.immediate ~max_attempts:attempts () in
    Printf.printf
      "chaos: NT=%d nb=%d, seed %d, fault rate %.0f%%, pivot rate %.0f%%, retry budget %d%s\n"
      ntiles nb seed (100. *. rate) (100. *. pivot_rate) attempts
      (if integrity <> None then ", SDC armed (ABFT guard on)" else "");
    let write_metrics_out () =
      match metrics_out with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (Metrics.to_json_string (Metrics.snapshot reg));
        output_char oc '\n';
        close_out oc
    in
    let report =
      Geomix_parallel.Pool.with_pool ~obs:reg ?num_workers:workers (fun pool ->
        Chol.factorize_robust ~pool ~faults ~retry ~obs:reg ?integrity ~pmap a)
    in
    List.iter
      (fun e ->
        Printf.printf "  escalated block %d to FP64 (%s scope)\n" e.Chol.block
          (match e.Chol.scope with Chol.Band -> "band" | Chol.Full -> "full"))
      report.Chol.escalations;
    Printf.printf "injected %d execution faults and %d pivot failures over %d round(s)\n"
      (Fault.injected faults) (Fault.pivots faults) report.Chol.rounds;
    (match integrity with
    | None -> ()
    | Some g ->
      Printf.printf
        "integrity: %d stamps, %d verifications (%s hashed), %d SDC detected, %d recovered\n"
        (Guard.stamped g) (Guard.verified g)
        (Geomix_util.Table.fmt_bytes (float_of_int (Guard.hashed_bytes g)))
        (Guard.detected g) (Guard.recovered g));
    let print_metrics () =
      let snap = Metrics.snapshot reg in
      print_string
        (match format with
        | `Table -> Metrics.to_table snap
        | `Csv -> Metrics.to_csv snap
        | `Json -> Metrics.to_json_string snap ^ "\n")
    in
    match report.Chol.outcome with
    | Chol.Indefinite p ->
      print_metrics ();
      write_metrics_out ();
      Printf.eprintf "geomix chaos: matrix indefinite at global pivot %d even at FP64\n" p;
      exit 2
    | Chol.Factorized ->
      (* The recovered factor must equal a fault-free factorization under
         the map the final round actually ran — bitwise. *)
      let reference = spd_test_matrix ~n ~nb in
      Chol.factorize ~pmap:report.Chol.pmap reference;
      let diff = Tiled.rel_diff a ~reference in
      Printf.printf "recovered factor vs fault-free run: rel diff %.3e (%s)\n" diff
        (if diff = 0. then "bitwise identical" else "MISMATCH");
      print_metrics ();
      write_metrics_out ();
      if diff <> 0. then exit 1;
      (* SDC contract: with the guard on, a run that reaches this point has
         a bitwise-clean factor; additionally every detection must have
         been recovered, and injected corruptions must not have gone
         entirely unnoticed.  (An unrecoverable corruption never reaches
         here — Guard.Corrupt exits 2 through the CLI boundary.) *)
      (match integrity with
      | None -> ()
      | Some g ->
        let det = Guard.detected g and recov = Guard.recovered g in
        let injected_sdc =
          match List.assoc_opt Fault.Sdc (Fault.by_kind faults) with
          | Some n -> n
          | None -> 0
        in
        if det <> recov then begin
          Printf.eprintf "geomix chaos: %d detections but only %d recoveries\n" det recov;
          exit 1
        end;
        if injected_sdc > 0 && det = 0 then begin
          Printf.eprintf
            "geomix chaos: %d corruptions injected, none detected\n" injected_sdc;
          exit 1
        end)
  in
  let nb_small_arg = Arg.(value & opt int 16 & info [ "nb" ] ~doc:"Tile size.") in
  let rate_arg =
    Arg.(value & opt float 0.1 & info [ "rate" ] ~doc:"Per-task fault probability.")
  in
  let pivot_rate_arg =
    Arg.(
      value & opt float 0.
      & info [ "pivot-rate" ]
          ~doc:
            "Probability of a forced pivot failure per low-precision POTRF \
             (exercises the precision-escalation fallback).")
  in
  let kinds_arg =
    Arg.(
      value
      & opt (list kind_conv) [ Geomix_fault.Fault.Transient; Geomix_fault.Fault.Crash_after_write ]
      & info [ "kinds" ] ~doc:"Fault kinds to inject: transient, crash, stall, sdc.")
  in
  let sdc_arg =
    Arg.(
      value & flag
      & info [ "sdc" ]
          ~doc:
            "Arm silent-data-corruption injection (adds the sdc fault kind) \
             and attach the ABFT integrity guard with snapshots, then assert \
             that every injected corruption was detected and recovered: the \
             run fails unless the factor is bitwise identical to the \
             fault-free reference and no detection went unrecovered.")
  in
  let attempts_arg =
    Arg.(value & opt int 3 & info [ "attempts" ] ~doc:"Retry budget per task.")
  in
  let format_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("table", `Table); ("csv", `Csv); ("json", `Json) ]) `Table
      & info [ "format" ] ~doc:"Metric output: table, csv or json.")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ]
          ~doc:
            "Also write the final metrics snapshot (fault, recovery and \
             integrity counters) as JSON to this file — written on both \
             success and failure, so CI can upload it as an artifact.")
  in
  let exits =
    Cmd.Exit.info 0
      ~doc:
        "the recovered factor is bitwise identical to the fault-free \
         reference run (and, under $(b,--sdc), every injected corruption \
         was detected and recovered)."
    :: Cmd.Exit.info 1
         ~doc:
           "the recovered factor diverged from the reference, or an \
            injected corruption escaped the integrity guard."
    :: Cmd.Exit.info 2
         ~doc:
           "a domain failure: the matrix is indefinite even at FP64, an \
            integrity violation could not be recovered, or a system error \
            (e.g. an unwritable $(b,--metrics-out) path) occurred."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "chaos" ~exits
       ~doc:
         "Factorize under seeded fault injection and verify the recovered result \
          is bitwise identical to a fault-free run")
    Term.(
      const run $ seed_arg $ nt_arg 6 $ config_arg `Mixed16_32 $ nb_small_arg $ rate_arg
      $ pivot_rate_arg $ kinds_arg $ sdc_arg $ attempts_arg $ workers_arg ""
      $ format_arg $ metrics_out_arg $ verbose_arg)

(* ooc subcommand *)

let ooc_cmd =
  let module Metrics = Geomix_obs.Metrics in
  let module Tiled = Geomix_tile.Tiled in
  let module Fault = Geomix_fault.Fault in
  let module Chol = Geomix_core.Mp_cholesky in
  let module Ooc = Geomix_core.Ooc_cholesky in
  let module Store = Geomix_ooc.Store in
  let fb = Geomix_util.Table.fmt_bytes in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let mkdir_p d = if not (Sys.file_exists d) then Unix.mkdir d 0o755 in
  (* Only ever delete directories that look like ours: tile records, a
     manifest, or the kill-matrix scratch layout. *)
  let reset_store_dir d =
    if Sys.file_exists d then begin
      let ours f =
        f = "MANIFEST.json" || f = "reference"
        || (String.length f >= 5 && String.sub f 0 5 = "tile_")
        || (String.length f >= 5 && String.sub f 0 5 = "kill_")
      in
      if Array.for_all ours (Sys.readdir d) then rm_rf d
      else begin
        Printf.eprintf
          "geomix ooc: %s exists and does not look like a tile store; refusing to delete it\n"
          d;
        exit 2
      end
    end
  in
  let report_store st =
    let sp = Store.spilled_bytes st and sp64 = Store.spilled_bytes_fp64 st in
    Printf.printf
      "store: %d spills (%s written, %s FP64-equivalent%s), %d loads (%s re-read), %d evictions, %d checkpoints\n"
      (Store.spills st)
      (fb (float_of_int sp))
      (fb (float_of_int sp64))
      (if sp64 > 0 then
         Printf.sprintf ", %.1f%% saved"
           (100. *. (1. -. (float_of_int sp /. float_of_int sp64)))
       else "")
      (Store.loads st)
      (fb (float_of_int (Store.reread_bytes st)))
      (Store.evictions st) (Store.checkpoints st);
    (match Store.spilled_by_scalar st with
    | [] -> ()
    | split ->
      print_string "  spilled by scalar:";
      List.iter
        (fun (s, b) ->
          Printf.printf "  %s %s" (Fp.scalar_name s) (fb (float_of_int b)))
        split;
      print_newline ());
    if Store.spill_retries st + Store.read_retries st + Store.quarantined_count st > 0
    then
      Printf.printf "  fault seam: %d spill retries, %d read retries, %d quarantined\n"
        (Store.spill_retries st) (Store.read_retries st)
        (Store.quarantined_count st)
  in
  let outcome_line = function
    | Ooc.Resumed { from_column; reshipped } ->
      Printf.sprintf "resumed from column %d%s" from_column
        (if reshipped > 0 then
           Printf.sprintf " (%d broadcast records reshipped)" reshipped
         else "")
    | Ooc.Restarted { quarantined } ->
      Printf.sprintf "restarted from the input (%d quarantined: %s)"
        (List.length quarantined)
        (String.concat "," (List.map string_of_int quarantined))
  in
  let run seed ntiles config nb budget_tiles every dir resume kill_after
      kill_matrix rot disk_rate format metrics_out verbose =
    let reg = Metrics.create () in
    attach_stderr_of ~verbose reg;
    let n = ntiles * nb in
    let pmap = pmap_of_config ~ntiles config in
    let init () = spd_test_matrix ~n ~nb in
    let budget = budget_tiles * nb * nb * 8 in
    let faults =
      if disk_rate > 0. then Some (Fault.plan ~obs:reg ~disk_rate ~seed ())
      else None
    in
    (* Every mode ends by comparing against the same in-core factorization
       under the same precision map — the contract is bitwise identity. *)
    let reference =
      lazy
        (let r = init () in
         Chol.factorize ~pmap r;
         r)
    in
    let verify name a =
      let diff = Tiled.rel_diff a ~reference:(Lazy.force reference) in
      Printf.printf "%s vs in-core factorization: rel diff %.3e (%s)\n" name diff
        (if diff = 0. then "bitwise identical" else "MISMATCH");
      diff = 0.
    in
    let print_metrics () =
      let snap = Metrics.snapshot reg in
      print_string
        (match format with
        | `Table -> Metrics.to_table snap
        | `Csv -> Metrics.to_csv snap
        | `Json -> Metrics.to_json_string snap ^ "\n")
    in
    let write_metrics_out () =
      match metrics_out with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (Metrics.to_json_string (Metrics.snapshot reg));
        output_char oc '\n';
        close_out oc
    in
    let finishing ok =
      print_metrics ();
      write_metrics_out ();
      if not ok then exit 1
    in
    let arm_kill st at =
      if at > 0 then
        Store.set_op_hook st
          (Some
             (fun k ->
               if k >= at then begin
                 flush Stdlib.stdout;
                 Unix.kill (Unix.getpid ()) Sys.sigkill
               end))
    in
    let resume_dir ?obs d =
      match
        Ooc.resume ?obs ?faults ~checkpoint_every:every ~budget ~dir:d ~init
          ~pmap ()
      with
      | st, a, outcome -> (st, a, outcome_line outcome)
      | exception Store.Store_error (Store.No_manifest _) ->
        (* Killed before the first manifest committed: nothing durable
           exists, so a fresh run is the documented recovery. *)
        let st = Store.create ?obs ?faults ~budget ~dir:d () in
        let a = init () in
        Ooc.factorize ~checkpoint_every:every ~store:st ~pmap a;
        (st, a, "no manifest yet; restarted fresh")
    in
    if kill_matrix then begin
      mkdir_p dir;
      let refdir = Filename.concat dir "reference" in
      rm_rf refdir;
      let st = Store.create ~obs:reg ?faults ~budget ~dir:refdir () in
      let a_ref = init () in
      Ooc.factorize ~checkpoint_every:every ~store:st ~pmap a_ref;
      let total = Store.ops st in
      let ok_ref = verify "uninterrupted out-of-core run" a_ref in
      report_store st;
      let points =
        let stride = max 1 (total / 8) in
        let rec up k acc =
          if k >= total then List.rev ((total - 1) :: acc)
          else up (k + stride) (k :: acc)
        in
        List.sort_uniq compare (1 :: up stride [])
      in
      Printf.printf "kill matrix: seed %d, %d disk ops per run, killing at [%s]\n"
        seed total
        (String.concat "; " (List.map string_of_int points));
      let all_ok = ref ok_ref in
      List.iter
        (fun pt ->
          let kdir = Filename.concat dir (Printf.sprintf "kill_%d" pt) in
          rm_rf kdir;
          flush Stdlib.stdout;
          flush Stdlib.stderr;
          match Unix.fork () with
          | 0 ->
            (* Child: run until the op hook SIGKILLs the process at the
               seeded durable transition — a real mid-spill crash. *)
            (try
               let st = Store.create ?faults ~budget ~dir:kdir () in
               arm_kill st pt;
               Ooc.factorize ~checkpoint_every:every ~store:st ~pmap (init ())
             with _ -> ());
            exit 0
          | pid ->
            let _, status = Unix.waitpid [] pid in
            let killed = status = Unix.WSIGNALED Sys.sigkill in
            let _, a, how = resume_dir kdir in
            let diff = Tiled.rel_diff a ~reference:(Lazy.force reference) in
            Printf.printf "  kill@%-4d %s: %s; rel diff %.3e (%s)\n" pt
              (if killed then "killed" else "ran to completion")
              how diff
              (if diff = 0. then "ok" else "MISMATCH");
            if diff <> 0. then all_ok := false)
        points;
      finishing !all_ok
    end
    else if rot then begin
      reset_store_dir dir;
      let st = Store.create ~obs:reg ?faults ~budget ~dir () in
      Ooc.factorize ~checkpoint_every:every ~store:st ~pmap (init ());
      (* Flip one payload byte of a committed record chosen by the seed,
         then resume: the checksum must catch it and the typed recovery
         must end in the exact factor. *)
      let records =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f >= 5
               && String.sub f 0 5 = "tile_"
               && not (Filename.check_suffix f ".quarantined"))
        |> List.sort compare
      in
      let victim = List.nth records (seed mod List.length records) in
      let path = Filename.concat dir victim in
      let len = (Unix.stat path).Unix.st_size in
      let off = min (len - 1) (47 + (seed mod max 1 (len - 47))) in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      Printf.printf "rotted one byte of %s at offset %d\n" victim off;
      let st, a, how = resume_dir ~obs:reg dir in
      Printf.printf "recovery: %s\n" how;
      report_store st;
      finishing (verify "recovered factorization" a)
    end
    else if resume then begin
      let st, a, how = resume_dir ~obs:reg dir in
      Printf.printf "recovery: %s\n" how;
      report_store st;
      finishing (verify "resumed factorization" a)
    end
    else begin
      reset_store_dir dir;
      let st = Store.create ~obs:reg ?faults ~budget ~dir () in
      arm_kill st kill_after;
      let a = init () in
      Printf.printf
        "ooc: NT=%d nb=%d (%s), residency budget %d tiles (%s), store %s, seed %d\n"
        ntiles nb (config_name config) budget_tiles
        (fb (float_of_int budget))
        dir seed;
      Ooc.factorize ~checkpoint_every:every ~store:st ~pmap a;
      report_store st;
      let ok = verify "out-of-core factorization" a in
      (* The headline claim of the paper carried to disk: narrowed spill
         records must cost strictly less than FP64-equivalent accounting
         whenever the map narrows anything. *)
      let ok =
        if config <> `Fp64 && Store.spilled_bytes st >= Store.spilled_bytes_fp64 st
        then begin
          Printf.printf "spilled bytes did not beat FP64-equivalent accounting\n";
          false
        end
        else ok
      in
      finishing ok
    end
  in
  let nb_small_arg = Arg.(value & opt int 16 & info [ "nb" ] ~doc:"Tile size.") in
  let budget_arg =
    Arg.(
      value & opt int 4
      & info [ "budget-tiles" ]
          ~doc:
            "Residency window in tiles: at most this many binary64 tile \
             images stay in memory; everything else lives in spill records.")
  in
  let every_arg =
    Arg.(
      value & opt int 1
      & info [ "checkpoint-every" ]
          ~doc:"Commit a manifest checkpoint every N completed panel columns.")
  in
  let dir_arg =
    Arg.(
      value
      & opt string (Filename.concat (Filename.get_temp_dir_name ()) "geomix-ooc")
      & info [ "dir" ]
          ~doc:
            "Store directory.  A fresh run recreates it; $(b,--resume) reads \
             the manifest it left behind.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Recover from the manifest in $(b,--dir) instead of starting \
             fresh: verify every surviving record's checksum, quarantine \
             rot, recompute the dirty frontier and verify the finished \
             factor bitwise.")
  in
  let kill_after_arg =
    Arg.(
      value & opt int 0
      & info [ "kill-after" ]
          ~doc:
            "SIGKILL this process at the Nth durable disk transition \
             (temp-written / rename-committed / manifest-committed) — a \
             real crash mid-spill.  Follow with $(b,--resume) in the same \
             $(b,--dir).  0 disarms.")
  in
  let kill_matrix_arg =
    Arg.(
      value & flag
      & info [ "kill-matrix" ]
          ~doc:
            "The crash-recovery gate: run once uninterrupted, then fork a \
             child per seeded kill point that SIGKILLs itself mid-run, \
             resume each orphaned store, and require every recovered \
             factor to be bitwise identical to the reference.")
  in
  let rot_arg =
    Arg.(
      value & flag
      & info [ "rot" ]
          ~doc:
            "After a complete run, flip one payload byte of a committed \
             spill record (chosen by $(b,--seed)) and resume: the checksum \
             must quarantine it and the typed recovery must still end in \
             the exact factor.")
  in
  let disk_rate_arg =
    Arg.(
      value & opt float 0.
      & info [ "disk-rate" ]
          ~doc:
            "Seeded disk-fault probability per spill/load (short writes, \
             ENOSPC, read bit-flips), absorbed by the store's bounded \
             retries.")
  in
  let format_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("table", `Table); ("csv", `Csv); ("json", `Json) ]) `Table
      & info [ "format" ] ~doc:"Metric output: table, csv or json.")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ]
          ~doc:
            "Also write the final metrics snapshot (ooc.* spill, re-read, \
             retry and quarantine counters) as JSON to this file.")
  in
  let exits =
    Cmd.Exit.info 0
      ~doc:
        "the out-of-core (and, under $(b,--kill-matrix) / $(b,--rot) / \
         $(b,--resume), the recovered) factor is bitwise identical to the \
         in-core factorization under the same precision map."
    :: Cmd.Exit.info 1
         ~doc:
           "a recovered factor diverged from the reference, or narrowed \
            spill records failed to beat FP64-equivalent accounting."
    :: Cmd.Exit.info 2
         ~doc:
           "a domain failure: unrecoverable store corruption, an \
            indefinite matrix, or a directory that is not a tile store."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "ooc" ~exits
       ~doc:
         "Out-of-core tile Cholesky over the crash-consistent spill store: \
          factorize under a bounded residency window with precision-narrowed \
          spill records, and verify kill/resume crash recovery bitwise")
    Term.(
      const run $ seed_arg $ nt_arg 6 $ config_arg `Mixed16_32 $ nb_small_arg $ budget_arg
      $ every_arg $ dir_arg $ resume_arg $ kill_after_arg $ kill_matrix_arg
      $ rot_arg $ disk_rate_arg $ format_arg $ metrics_out_arg $ verbose_arg)

(* report subcommand *)

let report_cmd =
  let module Metrics = Geomix_obs.Metrics in
  let module Events = Geomix_obs.Events in
  let module Profile = Geomix_obs.Profile in
  let module Report = Geomix_obs.Report in
  let module Jsonlite = Geomix_obs.Jsonlite in
  let module Tiled = Geomix_tile.Tiled in
  let module Trace = Geomix_runtime.Trace in
  let module Cdag = Geomix_runtime.Cholesky_dag in
  let module Chol = Geomix_core.Mp_cholesky in
  let fb = Geomix_util.Table.fmt_bytes in
  let pct x = Printf.sprintf "%.1f%%" (100. *. x) in
  let sec x = Printf.sprintf "%.6f s" x in
  let run smoke run_real ntiles config nb run_nb workers format out events verbose =
    (* --smoke: a fixed small instrumented run, the CI artifact preset. *)
    let ntiles, run_nb, workers, run_real =
      if smoke then (8, 16, Some 0, true) else (ntiles, run_nb, workers, run_real)
    in
    let pmap = pmap_of_config ~ntiles config in
    let cm = Cm.compute pmap in
    let m = Cm.motion cm pmap ~nb in
    let doc =
      Report.create
        ~title:
          (Printf.sprintf "geomix run report — NT=%d, %s" ntiles (config_name config))
    in
    Report.para doc
      (Printf.sprintf
         "Tile Cholesky of an NT=%d (%dx%d tiles) matrix under the %s precision \
          configuration; data-motion accounting at nb=%d%s."
         ntiles ntiles ntiles (config_name config) nb
         (if run_real then Printf.sprintf ", instrumented run at nb=%d" run_nb else ""));
    (* Precision-map composition — the paper's Fig 5 content. *)
    Report.section doc "Precision map";
    Report.table doc ~headers:[ "precision"; "tiles" ]
      (List.map (fun (p, f) -> [ Fp.name p; pct f ]) (Pm.fractions pmap));
    Report.para doc
      (Printf.sprintf "%s of broadcasting tiles ship STC under automated conversion."
         (pct (Cm.stc_fraction cm)));
    Report.attach doc ~key:"fractions"
      (Jsonlite.Obj
         (List.map (fun (p, f) -> (Fp.name p, Jsonlite.Num f)) (Pm.fractions pmap)));
    (* STC / TTC data-motion table — the Fig 8 measurement. *)
    Report.section doc "Data motion";
    Report.table doc
      ~headers:[ "strategy"; "bytes moved"; "conversions"; "vs FP64" ]
      [
        [ "STC (automated)"; fb m.Cm.bytes_stc; string_of_int m.Cm.conv_stc;
          pct (1. -. (m.Cm.bytes_stc /. m.Cm.bytes_fp64)) ^ " saved" ];
        [ "TTC (prior art)"; fb m.Cm.bytes_ttc; string_of_int m.Cm.conv_ttc;
          pct (1. -. (m.Cm.bytes_ttc /. m.Cm.bytes_fp64)) ^ " saved" ];
        [ "all-FP64"; fb m.Cm.bytes_fp64; "0"; "—" ];
      ];
    Report.para doc
      (Printf.sprintf "%d broadcast transfers; STC saves %s vs TTC."
         m.Cm.transfers
         (pct (1. -. (m.Cm.bytes_stc /. m.Cm.bytes_ttc))));
    Report.attach doc ~key:"motion"
      (Jsonlite.Obj
         [
           ("bytes_stc", Jsonlite.Num m.Cm.bytes_stc);
           ("bytes_ttc", Jsonlite.Num m.Cm.bytes_ttc);
           ("bytes_fp64", Jsonlite.Num m.Cm.bytes_fp64);
           ("transfers", Jsonlite.Num (float_of_int m.Cm.transfers));
         ]);
    (* The replayed makespan: [None] without --run, else the streamed and
       measured values. *)
    let replay =
      if not run_real then None
      else begin
        let reg = Metrics.create () in
        let profile = Profile.collector () in
        let stream = Metrics.events reg in
        (* Sinks: a JSONL file with --events, machine-readable JSONL on stderr
           under GEOMIX_LOG (the report's stdout is the document), a pretty
           stderr narration with --verbose, and a ring the report itself uses
           to cross-check the streamed log against the trace. *)
        let events_oc = Option.map open_out events in
        Option.iter (Events.attach_jsonl stream) events_oc;
        (match Events.env_level () with
        | None -> ()
        | Some lvl ->
          Events.on_event stream (fun e ->
              (* Levels are declared in ascending severity. *)
              if e.Events.level >= lvl then begin
                output_string stderr (Events.to_jsonl e);
                output_char stderr '\n';
                flush stderr
              end));
        if verbose then Events.attach_stderr ~min_level:Events.Debug stream;
        let ring = Events.ring ~capacity:65536 stream in
        let n = ntiles * run_nb in
        let a = spd_test_matrix ~n ~nb:run_nb in
        let resources = ref 1 in
        let guard = Geomix_integrity.Guard.create ~obs:reg () in
        let t0 = Unix.gettimeofday () in
        Geomix_parallel.Pool.with_pool ~obs:reg ?num_workers:workers (fun pool ->
            resources := Stdlib.max 1 (Geomix_parallel.Pool.num_workers pool);
            Chol.factorize ~pool ~profile ~obs:reg ~integrity:guard ~pmap a);
        let wall = Unix.gettimeofday () -. t0 in
        let measures = Profile.measures profile in
        let trace = Trace.of_measures measures in
        Option.iter close_out events_oc;
        (* Read the JSONL sink back through the resilient reader: the report
           records how many intact events the file holds and how many
           damaged lines were skipped, so a truncated or interleaved log is
           visible in the artifact instead of silently shorter. *)
        let events_readback =
          Option.map
            (fun path ->
              let ic = open_in path in
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () ->
                  let evs, skipped = Events.read_jsonl ic in
                  (List.length evs, skipped)))
            events
        in
        let dag = Cdag.create ~nt:ntiles in
        let preds =
          Geomix_parallel.Dag_exec.predecessors ~num_tasks:(Cdag.num_tasks dag)
            ~successors:(Cdag.successors dag)
        in
        let prof = Profile.analyze ~preds measures in
        (* Cross-check: the makespan reconstructed from the streamed task_end
           events must equal the trace's bit-for-bit (same hook, same floats);
           a mismatch fails the command after the report is written. *)
        let streamed_makespan =
          List.fold_left
            (fun acc (e : Events.event) ->
              if e.Events.name = "task_end" then
                match Option.bind (List.assoc_opt "at" e.Events.fields) Jsonlite.to_float with
                | Some t -> Float.max acc t
                | None -> acc
              else acc)
            0. (Events.ring_events ring)
        in
        Report.section doc "Execution";
        Report.table doc ~headers:[ "quantity"; "value" ]
          ([
             [ "matrix"; Printf.sprintf "n=%d (nb=%d)" n run_nb ];
             [ "workers"; string_of_int !resources ];
             [ "makespan"; sec (Trace.makespan trace) ];
             [ "wall clock"; Printf.sprintf "%.3f s" wall ];
             [ "utilisation"; pct (Trace.utilisation trace ~resources:!resources) ];
             [ "tasks"; string_of_int prof.Profile.tasks ];
             [ "event log reconstructs makespan";
               (if streamed_makespan = Trace.makespan trace then "yes (bit-identical)"
                else Printf.sprintf "NO (%h vs %h)" streamed_makespan
                       (Trace.makespan trace)) ];
           ]
          @
          match events_readback with
          | None -> []
          | Some (intact, skipped) ->
            [
              [ "events file intact lines"; string_of_int intact ];
              [ "events file damaged lines skipped"; string_of_int skipped ];
            ]);
        (match events_readback with
        | None -> ()
        | Some (intact, skipped) ->
          Report.attach doc ~key:"events_file"
            (Jsonlite.Obj
               [
                 ("intact", Jsonlite.Num (float_of_int intact));
                 ("skipped", Jsonlite.Num (float_of_int skipped));
               ]));
        Report.para doc "Occupancy (rows = workers, glyph = precision tag):";
        Report.code doc (Trace.gantt trace ~resources:!resources ~width:72);
        Report.section doc "Critical path";
        Report.para doc
          (Printf.sprintf
             "Critical path %s = %s of the %s makespan (busy %s over %d workers); \
              %d of %d tasks have zero slack.  Lower bound at this worker count: \
              %s (predicted speedup %.2fx against measured)."
             (sec prof.Profile.cp_length) (pct prof.Profile.cp_frac)
             (sec prof.Profile.makespan) (sec prof.Profile.busy) prof.Profile.workers
             (Array.fold_left (fun acc s -> if s = 0. then acc + 1 else acc) 0
                prof.Profile.slack)
             prof.Profile.tasks
             (sec (Profile.lower_bound prof ~workers:!resources))
             (Profile.predicted_speedup prof ~workers:!resources));
        Report.para doc
          ("Chain: " ^ String.concat " → " prof.Profile.cp_chain_labels);
        let bucket_rows buckets =
          List.map
            (fun (b : Profile.bucket) ->
              [ b.Profile.key; sec b.Profile.busy; string_of_int b.Profile.tasks;
                pct (if prof.Profile.busy > 0. then b.Profile.busy /. prof.Profile.busy else 0.) ])
            buckets
        in
        Report.para doc "Time attribution by kernel class:";
        Report.table doc ~headers:[ "class"; "busy"; "tasks"; "share" ]
          (bucket_rows prof.Profile.by_class);
        Report.para doc "Time attribution by execution precision:";
        Report.table doc ~headers:[ "precision"; "busy"; "tasks"; "share" ]
          (bucket_rows prof.Profile.by_precision);
        Report.para doc "What-if (critical-path / work lower bounds):";
        Report.table doc ~headers:[ "workers"; "lower bound"; "predicted speedup" ]
          (List.map
             (fun w ->
               [ string_of_int w; sec (Profile.lower_bound prof ~workers:w);
                 Printf.sprintf "%.2fx" (Profile.predicted_speedup prof ~workers:w) ])
             [ 1; 2; 4; 8 ]);
        Report.attach doc ~key:"profile" (Profile.to_json prof);
        Report.section doc "Metrics";
        Report.code doc (Metrics.to_table (Metrics.snapshot reg));
        let recovery =
          let snap = Metrics.snapshot reg in
          List.filter_map
            (fun name ->
              match Metrics.find snap name with
              | Some (Metrics.Counter n) -> Some [ name; string_of_int n ]
              | _ -> None)
            [ "cholesky.retries"; "cholesky.restores"; "recovery.band_escalations" ]
        in
        if recovery <> [] then begin
          Report.para doc "Recovery counters:";
          Report.table doc ~headers:[ "counter"; "value" ] recovery
        end;
        (* ABFT coverage of the instrumented run: how much was guarded and
           whether anything tripped (a clean run shows zero detections). *)
        let module Guard = Geomix_integrity.Guard in
        Report.section doc "Tile integrity";
        Report.table doc ~headers:[ "quantity"; "value" ]
          [
            [ "tile stamps"; string_of_int (Guard.stamped guard) ];
            [ "verifications"; string_of_int (Guard.verified guard) ];
            [ "bytes hashed"; fb (float_of_int (Guard.hashed_bytes guard)) ];
            [ "SDC detected"; string_of_int (Guard.detected guard) ];
            [ "SDC recovered"; string_of_int (Guard.recovered guard) ];
            [ "unrecovered violations"; string_of_int (Guard.violations guard) ];
          ];
        Report.attach doc ~key:"integrity"
          (Jsonlite.Obj
             [
               ("stamped", Jsonlite.Num (float_of_int (Guard.stamped guard)));
               ("verified", Jsonlite.Num (float_of_int (Guard.verified guard)));
               ("hashed_bytes", Jsonlite.Num (float_of_int (Guard.hashed_bytes guard)));
               ("detected", Jsonlite.Num (float_of_int (Guard.detected guard)));
               ("recovered", Jsonlite.Num (float_of_int (Guard.recovered guard)));
             ]);
        Some (streamed_makespan, Trace.makespan trace)
      end
    in
    let text =
      match format with
      | `Md -> Report.to_markdown doc
      | `Json -> Jsonlite.to_string ~indent:true (Report.to_json doc) ^ "\n"
    in
    (match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "report written to %s\n" path);
    match replay with
    | Some (streamed, measured) when streamed <> measured ->
      Printf.eprintf
        "geomix report: event log makespan %h does not rebuild the measured %h\n"
        streamed measured;
      exit 1
    | _ -> ()
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI preset: a fixed small instrumented run (NT=8, nb=16, serial \
             pool) — implies $(b,--run).")
  in
  let run_arg =
    Arg.(
      value & flag
      & info [ "run" ]
          ~doc:
            "Execute a real instrumented factorization and include execution, \
             critical-path and metrics sections (without it, the report holds \
             the static precision-map and data-motion analysis only).")
  in
  let run_nb_arg =
    Arg.(value & opt int 32 & info [ "run-nb" ] ~doc:"Tile size of the real --run matrix.")
  in
  let format_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("md", `Md); ("json", `Json) ]) `Md
      & info [ "format" ] ~doc:"Report output: md (GitHub-flavoured Markdown) or json.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~doc:"Write the report to this file instead of stdout.")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~doc:"Write the run's full telemetry stream to this JSONL file.")
  in
  let exits =
    Cmd.Exit.info 0 ~doc:"the report was written (and, with $(b,--run), the event log \
                          rebuilt the measured makespan bit-identically)."
    :: Cmd.Exit.info 1
         ~doc:"the streamed event log did not rebuild the measured makespan."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "report" ~exits
       ~doc:
         "Render a run report: precision-map composition, STC/TTC data motion, \
          and (with --run) occupancy, critical-path attribution and metrics of \
          a real instrumented factorization")
    Term.(
      const run $ smoke_arg $ run_arg $ nt_arg 8 $ config_arg `Mixed16_32 $ nb_arg
      $ run_nb_arg $ workers_arg " for --run" $ format_arg $ out_arg $ events_arg
      $ verbose_arg)

(* autotune subcommand *)

let autotune_cmd =
  let module Px = Geomix_autotune.Pareto_explorer in
  let run smoke nt nb seed targets machine_name format out json_out verbose =
    let nt, nb = if smoke then (8, 16) else (nt, nb) in
    let machine =
      match machine_name with
      | `A100 -> Geomix_gpusim.Machine.single_gpu Geomix_gpusim.Gpu_specs.A100
      | `V100 -> Geomix_gpusim.Machine.single_gpu Geomix_gpusim.Gpu_specs.V100
      | `H100 -> Geomix_gpusim.Machine.single_gpu Geomix_gpusim.Gpu_specs.H100
    in
    let f = Px.sweep ?targets ~machine ~nt ~nb ~seed () in
    let text =
      match format with `Md -> Px.to_markdown f | `Json -> Px.to_json_string f
    in
    (match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "frontier written to %s\n" path);
    (match json_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Px.to_json_string f);
      close_out oc;
      if verbose then Printf.eprintf "frontier JSON written to %s\n%!" path);
    (* Exit contract: 0 only when every swept point passes the differential
       oracle — and, under --smoke, when the sweep covers ≥ 5 targets and
       some point ships FP8 with strictly fewer STC bytes than the
       norm-rule map. *)
    if not (Px.all_within_bound f) then begin
      Printf.eprintf "geomix autotune: an advised map exceeded its accuracy bound\n";
      exit 1
    end;
    if smoke then begin
      if List.length f.Px.points < 5 then begin
        Printf.eprintf "geomix autotune: smoke sweep covers fewer than 5 targets\n";
        exit 1
      end;
      if not (Px.fp8_motion_win f) then begin
        Printf.eprintf
          "geomix autotune: no swept point ships FP8 with an STC byte win\n";
        exit 1
      end
    end
  in
  let nb_small_arg =
    Arg.(value & opt int 16 & info [ "nb" ] ~doc:"Tile size of the pilot matrix.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI preset (NT=8, nb=16) with the acceptance checks armed: every \
             advised map must satisfy its accuracy bound, the sweep must cover \
             at least 5 targets, and some point must ship FP8 with strictly \
             fewer STC bytes than the norm-rule map.")
  in
  let targets_arg =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "targets" ]
          ~doc:"Comma-separated accuracy targets (default 1e-2 … 1e-12).")
  in
  let machine_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("v100", `V100); ("a100", `A100); ("h100", `H100) ]) `A100
      & info [ "gpu" ] ~doc:"Simulated GPU for the energy/makespan axis.")
  in
  let format_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("md", `Md); ("json", `Json) ]) `Md
      & info [ "format" ] ~doc:"Frontier output: md or json.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~doc:"Write the frontier to this file instead of stdout.")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~doc:"Additionally write the frontier JSON artifact here.")
  in
  let exits =
    Cmd.Exit.info 1
      ~doc:
        "an advised map exceeded its differential-oracle accuracy bound, or a \
         $(b,--smoke) acceptance check failed."
    :: Cmd.Exit.info 2
         ~doc:"the pilot factorization failed (e.g. not positive definite)."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "autotune" ~exits
       ~doc:
         "Range-driven precision autotuning: pilot-instrument a factorization, \
          advise per-tile transfer formats (down to FP8) from measured ranges, \
          and sweep accuracy targets into an accuracy-vs-motion/energy Pareto \
          frontier")
    Term.(
      const run $ smoke_arg $ nt_arg 8 $ nb_small_arg $ seed_arg $ targets_arg
      $ machine_arg $ format_arg $ out_arg $ json_out_arg $ verbose_arg)

(* serve subcommand *)

let serve_cmd =
  let module Server = Geomix_serve.Server in
  let module Cache = Geomix_serve.Cache in
  let module Fault = Geomix_fault.Fault in
  let run socket workers max_inflight queue_capacity cache_capacity max_requests
      drain_deadline integrity retry_attempts trace_sample stats_socket
      telemetry_out chaos_seed chaos_rate chaos_pivot_rate chaos_sdc verbose =
    let obs = Geomix_obs.Metrics.create () in
    attach_stderr_of ~verbose obs;
    let faults =
      match chaos_seed with
      | None -> None
      | Some seed ->
        let kinds =
          if chaos_sdc then [ Fault.Transient; Fault.Sdc ]
          else [ Fault.Transient ]
        in
        Some
          (Fault.plan ~obs ~rate:chaos_rate ~kinds
             ~pivot_rate:chaos_pivot_rate ~seed ())
    in
    let retry =
      if retry_attempts <= 1 then None
      else Some { Geomix_fault.Retry.default with max_attempts = retry_attempts }
    in
    (* SDC injection without a guard would serve silently wrong numbers —
       the one configuration the serving layer must never run in. *)
    let integrity = integrity || chaos_sdc in
    Geomix_parallel.Pool.with_pool ~obs ?num_workers:workers (fun pool ->
        let server =
          Server.create ~obs ~max_inflight ~queue_capacity ~cache_capacity
            ?faults ?retry ~integrity ~drain_deadline_s:drain_deadline
            ~trace_sample ~pool ()
        in
        Server.install_drain_signals ();
        Printf.printf
          "geomix serve: listening on %s (%d worker domains, %d slots, queue %d)\n%!"
          socket
          (Geomix_parallel.Pool.num_workers pool)
          max_inflight queue_capacity;
        let telemetry =
          Option.map
            (fun path -> Geomix_obs.Expo.snapshotter ~path ())
            telemetry_out
        in
        let outcome =
          Fun.protect
            ~finally:(fun () -> Option.iter Geomix_obs.Expo.close telemetry)
            (fun () ->
              Server.serve_unix server ~path:socket ?max_requests
                ?stats_path:stats_socket ?telemetry ())
        in
        let s = Cache.stats (Server.cache server) in
        let h = Server.health server in
        Printf.printf
          "geomix serve: stopped (%s) after %d requests (cache: %d hits, %d \
           misses, %d evictions; recovered %d, escalated %d, shed %d)\n%!"
          (Server.outcome_name outcome)
          (Server.served server) s.Cache.hits s.Cache.misses s.Cache.evictions
          h.Geomix_serve.Protocol.recovered h.Geomix_serve.Protocol.escalated
          h.Geomix_serve.Protocol.shed;
        match outcome with
        | Server.Served | Server.Drained -> ()
        | Server.Drain_expired -> exit 3
        | Server.Forced -> exit 4)
  in
  let socket_arg =
    Arg.(
      value
      & opt string "/tmp/geomix.sock"
      & info [ "socket" ] ~doc:"Unix-domain socket path to listen on.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 4
      & info [ "max-inflight" ]
          ~doc:"Concurrent requests executing on the pool.")
  in
  let queue_capacity_arg =
    Arg.(
      value & opt int 16
      & info [ "queue-capacity" ]
          ~doc:
            "Admission queue depth; requests beyond it are rejected with a \
             saturated error.")
  in
  let cache_capacity_arg =
    Arg.(
      value & opt int 32
      & info [ "cache-capacity" ]
          ~doc:"Shape-keyed artifact cache entries (LRU beyond this).")
  in
  let max_requests_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ]
          ~doc:"Stop after answering this many requests (smoke tests).")
  in
  let drain_deadline_arg =
    Arg.(
      value & opt float 5.0
      & info [ "drain-deadline" ]
          ~doc:
            "Seconds the first SIGTERM/SIGINT lets queued and in-flight \
             requests finish before the run gives up (exit 3); a second \
             signal forces an immediate stop (exit 4).")
  in
  let integrity_arg =
    Arg.(
      value & flag
      & info [ "integrity" ]
          ~doc:
            "Guard every request's factorization with per-tile ABFT \
             checksums: silent data corruption is detected, quarantined and \
             repaired in place (forced on under $(b,--chaos-sdc)).")
  in
  let retry_attempts_arg =
    Arg.(
      value & opt int 3
      & info [ "retry-attempts" ]
          ~doc:
            "Bounded supervised-retry attempts per kernel (jittered \
             exponential backoff); 1 disables retry.")
  in
  let trace_sample_arg =
    Arg.(
      value & opt float 0.
      & info [ "trace-sample" ]
          ~doc:
            "Fraction of requests to trace end to end (0 disables, 1 traces \
             every request).  Sampling is a deterministic function of the \
             request id; a traced request's terminal reply carries a \
             telemetry footer with per-request bytes moved, modeled energy \
             and critical-path attribution.")
  in
  let stats_socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-socket" ]
          ~doc:
            "Bind a second Unix socket that answers every connection with \
             one Prometheus text exposition of the server's metrics \
             registry — a scrape endpoint independent of admission.")
  in
  let telemetry_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-out" ]
          ~doc:
            "Append rolling registry snapshots (one JSON line per second) \
             to this file, size-rotated to PATH.1..PATH.3.")
  in
  let chaos_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ]
          ~doc:
            "Arm a seeded fault plan inside the server's execution stack — \
             the chaos-under-load harness.  Decisions are pure functions of \
             the seed, so a run is replayable bit for bit.")
  in
  let chaos_rate_arg =
    Arg.(
      value & opt float 0.05
      & info [ "chaos-rate" ]
          ~doc:"Injection probability per task attempt under $(b,--chaos-seed).")
  in
  let chaos_pivot_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-pivot-rate" ]
          ~doc:
            "Forced pivot-failure probability — drives band-to-FP64 \
             escalation, surfaced to clients as an $(i,escalated) status.")
  in
  let chaos_sdc_arg =
    Arg.(
      value & flag
      & info [ "chaos-sdc" ]
          ~doc:
            "Additionally inject silent data corruption (implies \
             $(b,--integrity) so every corruption is caught and repaired).")
  in
  let exits =
    Cmd.Exit.info 0
      ~doc:
        "the run ended by a $(i,shutdown) request, $(b,--max-requests), or a \
         drain that finished every queued and in-flight request before \
         $(b,--drain-deadline)."
    :: Cmd.Exit.info 3
         ~doc:
           "a drain (first SIGTERM/SIGINT) expired with requests still in \
            flight."
    :: Cmd.Exit.info 4
         ~doc:"a second SIGTERM/SIGINT forced an immediate stop."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the model service: a Unix-domain-socket server evaluating \
          likelihood, kriging prediction and Monte-Carlo likelihood batches \
          over a shared domain pool, with a shape-keyed cache of precision \
          maps, communication maps and DAG schedules; \
          requests execute under supervised retry, integrity guards and \
          precision-escalation recovery, with graceful SIGTERM drain and \
          overload brown-out")
    Term.(
      const run $ socket_arg $ workers_arg "" $ max_inflight_arg
      $ queue_capacity_arg $ cache_capacity_arg $ max_requests_arg
      $ drain_deadline_arg $ integrity_arg $ retry_attempts_arg
      $ trace_sample_arg $ stats_socket_arg $ telemetry_out_arg
      $ chaos_seed_arg $ chaos_rate_arg $ chaos_pivot_rate_arg $ chaos_sdc_arg
      $ verbose_arg)

(* top subcommand *)

let top_cmd =
  let module P = Geomix_serve.Protocol in
  let module Metrics = Geomix_obs.Metrics in
  let module Jsonlite = Geomix_obs.Jsonlite in
  let fb = Geomix_util.Table.fmt_bytes in
  (* One poll = one connection: Health plus a Stats(json) scrape over the
     framed protocol, so `top` exercises exactly the surface any other
     operator tooling would. *)
  let poll socket =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX socket);
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let roundtrip payload =
          P.write_frame oc
            (P.request_to_json
               { P.id = "top"; priority = P.High; timeout_s = None; payload });
          let rec await () =
            match P.read_frame ic with
            | Error m -> failwith ("read_frame: " ^ m)
            | Ok j -> (
              match P.frame_of_json j with
              | Ok (P.Reply { reply; _ }) -> reply
              | Ok (P.Progress _) -> await ()
              | Error m -> failwith ("frame_of_json: " ^ m))
          in
          await ()
        in
        let health =
          match roundtrip P.Health with
          | P.Health_r h -> h
          | _ -> failwith "unexpected reply to Health"
        in
        let snap =
          match roundtrip (P.Stats P.Stats_json) with
          | P.Stats_r { body; _ } -> (
            match Jsonlite.of_string body with
            | Error m -> failwith ("stats body: " ^ m)
            | Ok j -> (
              match Metrics.of_json j with
              | Ok s -> s
              | Error m -> failwith ("stats snapshot: " ^ m)))
          | _ -> failwith "unexpected reply to Stats"
        in
        (health, snap))
  in
  let counter snap name =
    match Metrics.find snap name with Some (Metrics.Counter c) -> c | _ -> 0
  in
  let gauge snap name =
    match Metrics.find snap name with Some (Metrics.Gauge g) -> g | _ -> 0.
  in
  let shipped_prefix = "cholesky.shipped_bytes." in
  let by_precision snap =
    List.filter_map
      (fun (name, v) ->
        let pl = String.length shipped_prefix in
        if String.length name > pl && String.sub name 0 pl = shipped_prefix then
          match v with
          | Metrics.Counter c -> Some (String.sub name pl (String.length name - pl), c)
          | _ -> None
        else None)
      snap
  in
  let render ~socket ~clear ~dt ~prev (h, snap) =
    if clear then print_string "\027[2J\027[H";
    let p50, p99 =
      match Metrics.find snap "serve.latency_s" with
      | Some (Metrics.Histogram hs) when hs.Metrics.count > 0 ->
        (Metrics.quantile hs 0.5 *. 1e3, Metrics.quantile hs 0.99 *. 1e3)
      | _ -> (nan, nan)
    in
    let lookups = h.P.cache_hits + h.P.cache_misses in
    let hit_rate =
      if lookups = 0 then 0. else float_of_int h.P.cache_hits /. float_of_int lookups
    in
    Printf.printf "geomix top — %s%s\n\n" socket
      (if h.P.draining then "  [DRAINING]" else "");
    Printf.printf "  requests   served %-8d inflight %-4d queued %-4d peak %g\n"
      h.P.served h.P.inflight h.P.queued
      (gauge snap "serve.queue_peak");
    Printf.printf "  latency    p50 %.2f ms   p99 %.2f ms\n" p50 p99;
    Printf.printf "  cache      %.1f%% hit (%d/%d, %d evictions)\n"
      (100. *. hit_rate) h.P.cache_hits lookups h.P.cache_evictions;
    Printf.printf "  breaker    %s (%d trips, %d shed)  queue-mean %.2f  miss-mean %.2f\n"
      (if h.P.brownout then "OPEN" else "closed")
      (counter snap "serve.brownout_trips")
      h.P.shed
      (gauge snap "serve.brownout_queue_mean")
      (gauge snap "serve.brownout_miss_mean");
    Printf.printf "  recovery   recovered %d  escalated %d  retries %d\n"
      h.P.recovered h.P.escalated
      (counter snap "cholesky.retries");
    let total = counter snap "cholesky.shipped_bytes" in
    let total_fp64 = counter snap "cholesky.shipped_bytes_fp64" in
    Printf.printf "  motion     %s shipped STC (%s FP64-equivalent%s)\n"
      (fb (float_of_int total))
      (fb (float_of_int total_fp64))
      (if total_fp64 > 0 then
         Printf.sprintf ", %.1f%% saved"
           (100. *. (1. -. (float_of_int total /. float_of_int total_fp64)))
       else "");
    let prev_total = Option.fold ~none:0 ~some:(fun p -> counter p "cholesky.shipped_bytes") prev in
    if dt > 0. && prev <> None then
      Printf.printf "  rate       %s/s\n" (fb (float_of_int (total - prev_total) /. dt));
    let split = by_precision snap in
    if split <> [] then begin
      print_string "  by precision:\n";
      List.iter
        (fun (prec, bytes) ->
          let prev_bytes =
            match prev with Some p -> counter p (shipped_prefix ^ prec) | None -> 0
          in
          Printf.printf "    %-6s %10s%s\n" prec
            (fb (float_of_int bytes))
            (if dt > 0. && prev <> None then
               Printf.sprintf "  %s/s" (fb (float_of_int (bytes - prev_bytes) /. dt))
             else ""))
        split
    end;
    flush Stdlib.stdout
  in
  let run socket interval count once max_stale =
    if interval <= 0. then begin
      prerr_endline "geomix top: --interval must be positive";
      exit 2
    end;
    let rounds = if once then 1 else Option.value count ~default:max_int in
    let prev = ref None in
    let code = ref 0 in
    let backoff = ref 0.5 in
    let stale_since = ref None in
    (try
       let i = ref 0 in
       while !i < rounds && !code = 0 do
         match poll socket with
         | h, snap ->
           backoff := 0.5;
           if !stale_since <> None then begin
             stale_since := None;
             print_endline "geomix top: reconnected"
           end;
           render ~socket ~clear:(not once && rounds > 1) ~dt:interval ~prev:!prev
             (h, snap);
           prev := Some snap;
           incr i;
           if !i < rounds then Unix.sleepf interval
         | exception (Unix.Unix_error _ | Failure _ | Sys_error _)
           when (not once) && !prev <> None ->
           (* The server went away mid-watch.  Don't die: banner the data
              on screen as stale and retry with bounded exponential
              backoff until it comes back or the stale budget runs out. *)
           let now = Unix.gettimeofday () in
           let since =
             match !stale_since with
             | Some t -> t
             | None ->
               stale_since := Some now;
               now
           in
           let age = now -. since in
           if age > max_stale then begin
             Printf.eprintf
               "geomix top: %s unreachable for %.0f s (limit %.0f s) — giving up\n"
               socket age max_stale;
             code := 1
           end
           else begin
             Printf.printf
               "geomix top: [STALE %.0f s] %s unreachable — retrying in %.1f s\n"
               age socket !backoff;
             flush Stdlib.stdout;
             Unix.sleepf !backoff;
             backoff := Float.min 8.0 (!backoff *. 2.)
           end
       done
     with
    | Unix.Unix_error (e, _, _) ->
      Printf.eprintf "geomix top: cannot reach %s: %s\n" socket (Unix.error_message e);
      code := 1
    | Failure m | Sys_error m ->
      Printf.eprintf "geomix top: %s\n" m;
      code := 1);
    if !code <> 0 then exit !code
  in
  let socket_arg =
    Arg.(
      value
      & opt string "/tmp/geomix.sock"
      & info [ "socket" ] ~doc:"Unix-domain socket of the running server.")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~doc:"Seconds between refreshes.")
  in
  let count_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ] ~doc:"Stop after this many refreshes (default: forever).")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print a single snapshot without clearing the screen and exit.")
  in
  let max_stale_arg =
    Arg.(
      value & opt float 60.
      & info [ "max-stale" ]
          ~doc:
            "Seconds to keep retrying (with 0.5 s → 8 s exponential \
             backoff, the on-screen data bannered STALE) after the server \
             stops answering mid-watch, before exiting nonzero.  A server \
             restart inside this window reconnects seamlessly.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live operator view of a running $(b,geomix serve): polls the \
          server's $(i,stats) and $(i,health) requests and renders inflight \
          and queue depth, latency quantiles, cache hit rate, brown-out \
          breaker state and data-motion rates by transfer precision; a \
          server that goes away mid-watch is retried with bounded backoff \
          under a STALE banner instead of killing the view")
    Term.(
      const run $ socket_arg $ interval_arg $ count_arg $ once_arg
      $ max_stale_arg)

let () =
  let doc = "mixed-precision geospatial modeling toolkit (CLUSTER 2023 reproduction)" in
  let group =
    Cmd.group (Cmd.info "geomix" ~version:"1.0.0" ~doc)
      [
        precision_map_cmd; simulate_cmd; stats_cmd; mle_cmd; gemm_cmd; chaos_cmd;
        ooc_cmd; report_cmd; autotune_cmd; serve_cmd; top_cmd;
      ]
  in
  (* CLI error boundary: domain failures exit 2 with a one-line diagnostic
     instead of an uncaught-exception backtrace. *)
  let code =
    try Cmd.eval ~catch:false group with
    | Geomix_linalg.Blas.Not_positive_definite p ->
      Printf.eprintf "geomix: matrix is not positive definite (pivot %d); try a larger nugget or u-req\n" p;
      2
    | Geomix_integrity.Guard.Corrupt { key; task; reason } ->
      Printf.eprintf
        "geomix: unrecoverable data corruption detected (tile key %d in %s: %s)\n"
        key task reason;
      2
    | Geomix_ooc.Store.Store_error e ->
      Printf.eprintf "geomix: tile store failure: %s\n"
        (Geomix_ooc.Store.error_to_string e);
      2
    | Sys_error msg ->
      Printf.eprintf "geomix: %s\n" msg;
      2
  in
  exit code
