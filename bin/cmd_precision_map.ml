(* geomix precision-map: the adaptive tile-precision map of a covariance. *)

open Cmdliner
open Cli
module Cm = Geomix_core.Comm_map

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

let cmd =
  let n_arg = Arg.(value & opt int 65536 & info [ "order" ] ~doc:"Matrix order / site count.") in
  let render_arg = Arg.(value & flag & info [ "render" ] ~doc:"Draw the tile map (small maps).") in
  Cmd.v
    (Cmd.info "precision-map" ~doc:"Compute the adaptive tile-precision map of a covariance")
    Term.(
      const run $ family_arg $ sigma2_arg $ beta_arg $ nu_arg $ nugget_arg $ dims_arg
      $ seed_arg $ u_req_arg $ n_arg $ nb_arg 2048 $ render_arg)
