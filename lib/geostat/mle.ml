module Nm = Geomix_optim.Nelder_mead
module Bl = Geomix_optim.Bobyqa_lite

type optimizer = Nelder_mead | Bobyqa_lite

type settings = {
  optimizer : optimizer;
  lower : float;
  upper : float;
  tol : float;
  max_evals : int;
}

let default_settings =
  { optimizer = Nelder_mead; lower = 0.01; upper = 2.; tol = 1e-9; max_evals = 400 }

type fit = {
  cov : Covariance.t;
  theta : float array;
  loglik : float;
  evals : int;
  converged : bool;
}

let param_count = function
  | Covariance.Sqexp | Covariance.Spherical -> 2
  | Covariance.Matern | Covariance.Powexp -> 3

let start_point settings family = Array.make (param_count family) settings.lower

let fit ?(settings = default_settings) ?(nugget = Covariance.default_nugget) ~engine
    ~family ~locs ~z () =
  let dim = param_count family in
  let base = Covariance.of_family ~nugget family ~sigma2:1. ~beta:1. ~nu:1. in
  (* Variance, range and smoothness are scale parameters: the optimiser
     works on log-θ, where the likelihood basin occupies a healthy fraction
     of the box instead of a sliver near the lower bound. Bounds, starting
     point and tolerance are still the paper's. *)
  let lower = Array.make dim (log settings.lower) in
  let upper = Array.make dim (log settings.upper) in
  let objective logtheta =
    (* Minimise the negative log-likelihood. *)
    let cov = Covariance.with_theta base (Array.map exp logtheta) in
    -.Likelihood.loglik engine ~cov ~locs ~z
  in
  let minimize ~max_evals x0 =
    match settings.optimizer with
    | Nelder_mead ->
      let r = Nm.minimize ~max_evals ~tol:settings.tol ~lower ~upper ~x0 objective in
      (r.Nm.x, r.Nm.fval, r.Nm.evals, r.Nm.converged)
    | Bobyqa_lite ->
      let r = Bl.minimize ~max_evals ~tol:settings.tol ~lower ~upper ~x0 objective in
      (r.Bl.x, r.Bl.fval, r.Bl.evals, r.Bl.converged)
  in
  (* Projection-based simplex methods can collapse against the bounds when
     started from the paper's all-lower-bounds corner (BOBYQA, which the
     paper uses, is immune).  A deterministic coarse grid scan over log-θ
     seeds the local search with the right basin, and a refinement restart
     polishes the result. *)
  let grid_per_dim = if dim <= 2 then 4 else 3 in
  let grid_points =
    let rec build acc d =
      if d = dim then [ Array.of_list (List.rev acc) ]
      else
        List.concat_map
          (fun i ->
            let frac = (float_of_int i +. 0.5) /. float_of_int grid_per_dim in
            build ((lower.(d) +. (frac *. (upper.(d) -. lower.(d)))) :: acc) (d + 1))
          (List.init grid_per_dim Fun.id)
    in
    build [] 0
  in
  let corner = Array.map log (start_point settings family) in
  let scans = List.map (fun x -> (x, objective x)) (corner :: grid_points) in
  let scans = List.filter (fun (_, f) -> not (Float.is_nan f)) scans in
  let spent_scan = List.length scans in
  let seed, _ =
    List.fold_left (fun ((_, bf) as b) ((_, f) as r) -> if f < bf then r else b)
      (List.hd scans) (List.tl scans)
  in
  let budget = Stdlib.max 10 ((settings.max_evals - spent_scan) / 2) in
  let x1, _, e1, _ = minimize ~max_evals:budget seed in
  let x, fval, e2, converged = minimize ~max_evals:budget x1 in
  let spent = spent_scan + e1 in
  let theta = Array.map exp x in
  {
    cov = Covariance.with_theta base theta;
    theta;
    loglik = -.fval;
    evals = spent + e2;
    converged;
  }
