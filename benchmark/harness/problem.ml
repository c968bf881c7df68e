module Covariance = Geomix_geostat.Covariance
module Locations = Geomix_geostat.Locations
module Likelihood = Geomix_geostat.Likelihood
module Precision_map = Geomix_core.Precision_map
module Comm_map = Geomix_core.Comm_map
module Mp_cholesky = Geomix_core.Mp_cholesky
module Tiled = Geomix_tile.Tiled
module Mat = Geomix_linalg.Mat
module Rng = Geomix_util.Rng

let u_req = 1e-6
let data_cov = Covariance.matern ~sigma2:1.0 ~beta:0.1 ~nu:0.5 ()

type inputs = { locs : Locations.t; z : float array; shift : float array }

let inputs ~seed ~n =
  let master = Rng.create ~seed in
  let locs_rng = Rng.split master in
  let data_rng = Rng.split master in
  let locs = Locations.morton_sort (Locations.jittered_grid_2d ~rng:locs_rng ~n) in
  let z = Geomix_geostat.Field.synthesize ~rng:data_rng ~cov:data_cov locs in
  { locs; z; shift = Array.init 3 (fun _ -> Rng.float master) }

(* R3 sequence (Roberts): additive recurrence by the powers of the inverse
   plastic number, the 3-D analogue of the golden-ratio sequence. *)
let alpha =
  let phi = 1.324717957244746 in
  [| 1. /. phi; 1. /. (phi *. phi); 1. /. (phi *. phi *. phi) |]

let theta inp k =
  let u d =
    let x = inp.shift.(d) +. (float_of_int (k + 1) *. alpha.(d)) in
    x -. Float.floor x
  in
  let log_uniform d lo hi = exp (log lo +. (u d *. (log hi -. log lo))) in
  Covariance.matern ~sigma2:(log_uniform 0 0.5 2.0) ~beta:(log_uniform 1 0.05 0.2)
    ~nu:(log_uniform 2 0.4 0.8) ()

type factor = pmap:Precision_map.t -> cmap:Comm_map.t -> Tiled.t -> Mp_cholesky.report

let robust ?pool ?profile ?obs () ~pmap ~cmap a =
  Mp_cholesky.factorize_robust ?pool ?profile ?obs ~cmap ~pmap a

type result = {
  eval : Likelihood.evaluation;
  a : Tiled.t;
  pmap : Precision_map.t;
  cmap : Comm_map.t;
  escalations : int;
}

let chain_spans =
  [ "geostat.build_tiled"; "core.pmap"; "core.cmap"; "core.solve"; "core.log_det";
    "geostat.assemble" ]

let chain tr ~op ?(factor_span = "core.factorize") ~factor ~nb inp cov =
  Tracer.span tr ~op "op" (fun root ->
      let step name f = Tracer.span tr ~parent:root ~op name (fun _ -> f ()) in
      let a = step "geostat.build_tiled" (fun () -> Covariance.build_tiled cov inp.locs ~nb) in
      let pmap = step "core.pmap" (fun () -> Precision_map.of_tiled ~u_req a) in
      let cmap = step "core.cmap" (fun () -> Comm_map.compute pmap) in
      let report = step factor_span (fun () -> factor ~pmap ~cmap a) in
      let precision_fractions = Precision_map.fractions report.Mp_cholesky.pmap in
      let escalations = List.length report.Mp_cholesky.escalations in
      let eval =
        match report.Mp_cholesky.outcome with
        | Mp_cholesky.Indefinite _ ->
          {
            Likelihood.loglik = neg_infinity;
            log_det = nan;
            quad_form = nan;
            precision_fractions;
            status = Likelihood.Indefinite;
          }
        | Mp_cholesky.Factorized ->
          let status =
            match report.Mp_cholesky.escalations with
            | [] -> Likelihood.Clean
            | es -> Likelihood.Escalated es
          in
          let y = step "core.solve" (fun () -> Mp_cholesky.solve_lower a inp.z) in
          let log_det = step "core.log_det" (fun () -> Mp_cholesky.log_det a) in
          step "geostat.assemble" (fun () ->
              let quad_form = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. y in
              Likelihood.assemble ~status ~n:(Locations.count inp.locs) ~log_det
                ~quad_form ~precision_fractions ())
      in
      { eval; a; pmap; cmap; escalations })

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_eval (x : Likelihood.evaluation) (y : Likelihood.evaluation) =
  bits_equal x.loglik y.loglik && bits_equal x.log_det y.log_det
  && bits_equal x.quad_form y.quad_form

let same_factor a b =
  Tiled.nt a = Tiled.nt b
  &&
  let ok = ref true in
  Tiled.iter_lower a (fun ~i ~j ma ->
      let mb = Tiled.tile b i j in
      for c = 0 to Mat.cols ma - 1 do
        for r = 0 to Mat.rows ma - 1 do
          if not (bits_equal (Mat.get ma r c) (Mat.get mb r c)) then ok := false
        done
      done);
  !ok

let rel_err ~exact (e : Likelihood.evaluation) =
  Float.abs (e.Likelihood.loglik -. exact.Likelihood.loglik)
  /. Float.abs exact.Likelihood.loglik

let motion r = Comm_map.motion r.cmap r.pmap ~nb:(Tiled.nb r.a)
