(* Flags and helpers the geomix subcommands share.  A flag that several
   subcommands take is defined here once; where its help differs between
   them, the constructor takes the doc string.  Numeric flags with a domain
   use range-checked converters, so an out-of-range value is a usage error
   (exit 124) before the subcommand allocates anything. *)

open Cmdliner
module Fp = Geomix_precision.Fpformat
module Rng = Geomix_util.Rng
module Pm = Geomix_core.Precision_map
module Covariance = Geomix_geostat.Covariance
module Locations = Geomix_geostat.Locations
module Metrics = Geomix_obs.Metrics
module Profile = Geomix_obs.Profile
module Trace = Geomix_runtime.Trace
module Pool = Geomix_parallel.Pool

(* Range-checked converters.  They keep the base converter's printer and
   its INT/FLOAT placeholder, so the help text is unchanged. *)

let checked base ~docv ~expected ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv ~docv (parse, Arg.conv_printer base)

let positive_int = checked Arg.int ~docv:"INT" ~expected:"an integer >= 1" (fun n -> n >= 1)

let probability =
  checked Arg.float ~docv:"FLOAT" ~expected:"a number in [0, 1]" (fun x ->
      x >= 0. && x <= 1.)

(* Covariance model and sites *)

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

let sites ~dims ~seed ~n =
  let rng = Rng.create ~seed in
  Locations.morton_sort
    (if dims = 3 then Locations.jittered_grid_3d ~rng ~n
     else Locations.jittered_grid_2d ~rng ~n)

(* Tile grid, precision configuration and pool *)

let nt_arg default =
  Arg.(value & opt positive_int default & info [ "nt" ] ~doc:"Tiles per dimension.")

let nb_arg ?(doc = "Tile size.") default =
  Arg.(value & opt positive_int default & info [ "nb" ] ~doc)

type config = [ `Fp64 | `Fp32 | `Mixed16 | `Mixed16_32 ]

let config_conv : config Arg.conv =
  Arg.enum
    [ ("fp64", `Fp64); ("fp32", `Fp32); ("fp64-fp16", `Mixed16); ("fp64-fp16-32", `Mixed16_32) ]

let config_name = function
  | `Fp64 -> "fp64"
  | `Fp32 -> "fp32"
  | `Mixed16 -> "fp64-fp16"
  | `Mixed16_32 -> "fp64-fp16-32"

let config_arg default =
  Arg.(
    value & opt config_conv default
    & info [ "config" ] ~doc:"fp64|fp32|fp64-fp16|fp64-fp16-32.")

let pmap_of_config ~ntiles = function
  | `Fp64 -> Pm.uniform ~nt:ntiles Fp.Fp64
  | `Fp32 -> Pm.uniform ~nt:ntiles Fp.Fp32
  | `Mixed16 -> Pm.two_level ~nt:ntiles ~off_diag:Fp.Fp16
  | `Mixed16_32 -> Pm.two_level ~nt:ntiles ~off_diag:Fp.Fp16_32

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

(* Telemetry verbosity: --verbose streams Debug-level events to stderr;
   otherwise GEOMIX_LOG=debug|info|warn|error selects the level; otherwise
   the subcommand attaches no sink and pays nothing. *)

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
  Option.iter (fun min_level -> Events.attach_stderr ~min_level (Metrics.events reg)) level

(* Outputs *)

let fb = Geomix_util.Table.fmt_bytes

let write_file path text = Out_channel.with_open_text path (fun oc -> output_string oc text)

(* [--out]: the document goes to stdout, or to the file with a one-line
   notice naming [what] was written. *)
let print_or_write ~what out text =
  match out with
  | None -> print_string text
  | Some path ->
    write_file path text;
    Printf.printf "%s written to %s\n" what path

let out_arg ~doc = Arg.(value & opt (some string) None & info [ "out" ] ~doc)
let smoke_arg ~doc = Arg.(value & flag & info [ "smoke" ] ~doc)

(* [--format] of a document: Markdown or JSON. *)
let doc_format_arg ~doc =
  Arg.(value & opt (enum [ ("md", `Md); ("json", `Json) ]) `Md & info [ "format" ] ~doc)

let metrics_format_arg : [ `Table | `Csv | `Json ] Term.t =
  Arg.(
    value
    & opt (enum [ ("table", `Table); ("csv", `Csv); ("json", `Json) ]) `Table
    & info [ "format" ] ~doc:"Metric output: table, csv or json.")

let metrics_out_arg ~doc = Arg.(value & opt (some string) None & info [ "metrics-out" ] ~doc)

(* The registry's snapshot on stdout in [format], and as JSON to the
   --metrics-out file when one is given. *)
let print_metrics ?metrics_out format reg =
  let snap = Metrics.snapshot reg in
  print_string
    (match format with
    | `Table -> Metrics.to_table snap
    | `Csv -> Metrics.to_csv snap
    | `Json -> Metrics.to_json_string snap ^ "\n");
  Option.iter (fun path -> write_file path (Metrics.to_json_string snap ^ "\n")) metrics_out

let trace_json_arg ~doc = Arg.(value & opt (some string) None & info [ "trace-json" ] ~doc)
let gantt_arg ~doc = Arg.(value & flag & info [ "gantt" ] ~doc)

(* What --trace-json and --gantt ask for; [label] starts the notice line. *)
let show_trace ~label ~resources trace_json gantt trace =
  Option.iter
    (fun path ->
      write_file path (Trace.to_chrome_json trace);
      Printf.printf "%s written to %s (chrome://tracing)\n" label path)
    trace_json;
  if gantt then print_string (Trace.gantt trace ~resources ~width:72)

let socket_arg ~doc = Arg.(value & opt string "/tmp/geomix.sock" & info [ "socket" ] ~doc)

(* The real instrumented factorization behind stats --run and report --run *)

let run_arg ~doc = Arg.(value & flag & info [ "run" ] ~doc)

let run_nb_arg =
  Arg.(value & opt positive_int 32 & info [ "run-nb" ] ~doc:"Tile size of the real --run matrix.")

type measured = {
  n : int;
  workers : int; (* at least 1: a serial pool counts as one resource *)
  wall : float; (* seconds, pool start-up included *)
  measures : Profile.measure list;
  trace : Trace.t;
}

(* Factorize the SPD test matrix at tile size [nb] under [pmap] on a pool
   instrumented by [reg], profiling every task. *)
let measured_run ~reg ?integrity ?workers ~pmap ~nb () =
  let n = Pm.nt pmap * nb in
  let a = spd_test_matrix ~n ~nb in
  let profile = Profile.collector () in
  let t0 = Unix.gettimeofday () in
  let workers =
    Pool.with_pool ~obs:reg ?num_workers:workers (fun pool ->
        Geomix_core.Mp_cholesky.factorize ~pool ~profile ~obs:reg ?integrity ~pmap a;
        Stdlib.max 1 (Pool.num_workers pool))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let measures = Profile.measures profile in
  { n; workers; wall; measures; trace = Trace.of_measures measures }
