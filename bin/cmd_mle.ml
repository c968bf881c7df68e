(* geomix mle: fit covariance parameters to a synthetic dataset. *)

open Cmdliner
open Cli
module Field = Geomix_geostat.Field
module Likelihood = Geomix_geostat.Likelihood
module Mle = Geomix_geostat.Mle

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

let cmd =
  let n_arg = Arg.(value & opt positive_int 196 & info [ "sites" ] ~doc:"Number of sites.") in
  let exact_arg = Arg.(value & flag & info [ "exact" ] ~doc:"Use the exact FP64 engine.") in
  let max_evals_arg =
    Arg.(value & opt int 150 & info [ "max-evals" ] ~doc:"Likelihood evaluation budget.")
  in
  Cmd.v
    (Cmd.info "mle" ~doc:"Fit covariance parameters to a synthetic dataset by MLE")
    Term.(
      const run $ family_arg $ sigma2_arg $ beta_arg $ nu_arg $ nugget_arg $ dims_arg
      $ seed_arg $ n_arg $ u_req_arg $ exact_arg $ max_evals_arg)
