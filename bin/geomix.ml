(* geomix — command-line front end to the library: precision maps,
   simulated cluster runs, MLE fits and GEMM accuracy probes.  Each
   subcommand lives in its own Cmd_* module over the shared flags of Cli;
   this module dispatches and holds the error boundary. *)

open Cmdliner

let () =
  let doc = "mixed-precision geospatial modeling toolkit (CLUSTER 2023 reproduction)" in
  let group =
    Cmd.group (Cmd.info "geomix" ~version:"1.0.0" ~doc)
      [
        Cmd_precision_map.cmd; Cmd_simulate.cmd; Cmd_stats.cmd; Cmd_mle.cmd; Cmd_gemm.cmd;
        Cmd_chaos.cmd; Cmd_ooc.cmd; Cmd_report.cmd; Cmd_autotune.cmd; Cmd_serve.cmd;
        Cmd_top.cmd;
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
