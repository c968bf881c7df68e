(* geomix autotune: range-driven precision autotuning into an
   accuracy-vs-motion/energy Pareto frontier. *)

open Cmdliner
open Cli
module Px = Geomix_autotune.Pareto_explorer

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
  print_or_write ~what:"frontier" out text;
  Option.iter
    (fun path ->
      write_file path (Px.to_json_string f);
      if verbose then Printf.eprintf "frontier JSON written to %s\n%!" path)
    json_out;
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

let cmd =
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
      const run
      $ smoke_arg
          ~doc:
            "CI preset (NT=8, nb=16) with the acceptance checks armed: every \
             advised map must satisfy its accuracy bound, the sweep must cover \
             at least 5 targets, and some point must ship FP8 with strictly \
             fewer STC bytes than the norm-rule map."
      $ nt_arg 8
      $ nb_arg ~doc:"Tile size of the pilot matrix." 16
      $ seed_arg $ targets_arg $ machine_arg
      $ doc_format_arg ~doc:"Frontier output: md or json."
      $ out_arg ~doc:"Write the frontier to this file instead of stdout."
      $ json_out_arg $ verbose_arg)
