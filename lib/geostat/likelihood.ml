module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Tiled = Geomix_tile.Tiled
module Mp_cholesky = Geomix_core.Mp_cholesky
module Precision_map = Geomix_core.Precision_map
module Fpformat = Geomix_precision.Fpformat

type engine =
  | Exact
  | Mixed of { u_req : float; nb : int }
  | Tlr of { tol : float; nb : int; u_req : float option }

let mixed ~u_req ~nb () = Mixed { u_req; nb }

type status =
  | Clean
  | Escalated of Mp_cholesky.escalation list
  | Indefinite

type evaluation = {
  loglik : float;
  log_det : float;
  quad_form : float;
  precision_fractions : (Fpformat.t * float) list;
  status : status;
}

let assemble ?(status = Clean) ~n ~log_det ~quad_form ~precision_fractions () =
  let loglik =
    (-0.5 *. float_of_int n *. log (2. *. Float.pi)) -. (0.5 *. log_det)
    -. (0.5 *. quad_form)
  in
  { loglik; log_det; quad_form; precision_fractions; status }

let indefinite_evaluation ~precision_fractions =
  {
    loglik = neg_infinity;
    log_det = nan;
    quad_form = nan;
    precision_fractions;
    status = Indefinite;
  }

let evaluate engine ~cov ~locs ~z =
  let n = Locations.count locs in
  assert (Array.length z = n);
  match engine with
  | Exact ->
    let l = Covariance.build_dense cov locs in
    Blas.potrf_lower l;
    let y = Blas.trsv_lower ~l z in
    let quad_form = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. y in
    assemble ~n ~log_det:(Blas.log_det_from_chol l) ~quad_form
      ~precision_fractions:[ (Fpformat.Fp64, 1.) ]
      ()
  | Mixed { u_req; nb } ->
    let a = Covariance.build_tiled cov locs ~nb in
    let pmap = Precision_map.of_tiled ~u_req a in
    Mp_cholesky.factorize ~pmap a;
    let y = Mp_cholesky.solve_lower a z in
    let quad_form = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. y in
    assemble ~n ~log_det:(Mp_cholesky.log_det a) ~quad_form
      ~precision_fractions:(Precision_map.fractions pmap)
      ()
  | Tlr { tol; nb; u_req } ->
    let a = Covariance.build_tiled cov locs ~nb in
    let precision, fractions =
      match u_req with
      | Some u ->
        let pmap = Precision_map.of_tiled ~u_req:u a in
        (Some pmap, Precision_map.fractions pmap)
      | None -> (None, [ (Fpformat.Fp64, 1.) ])
    in
    let t = Geomix_tlr.Tlr.compress ?precision ~tol a in
    Geomix_tlr.Tlr.cholesky t;
    let y = Geomix_tlr.Tlr.solve_lower t z in
    let quad_form = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. y in
    assemble ~n ~log_det:(Geomix_tlr.Tlr.log_det t) ~quad_form
      ~precision_fractions:fractions ()

let evaluate_robust ?faults ?retry ?obs engine ~cov ~locs ~z =
  let n = Locations.count locs in
  assert (Array.length z = n);
  match engine with
  | Mixed { u_req; nb } ->
    let a = Covariance.build_tiled cov locs ~nb in
    let pmap = Precision_map.of_tiled ~u_req a in
    let report = Mp_cholesky.factorize_robust ?faults ?retry ?obs ~pmap a in
    (match report.Mp_cholesky.outcome with
    | Mp_cholesky.Indefinite _ ->
      indefinite_evaluation
        ~precision_fractions:(Precision_map.fractions report.Mp_cholesky.pmap)
    | Mp_cholesky.Factorized ->
      let status =
        match report.Mp_cholesky.escalations with
        | [] -> Clean
        | es -> Escalated es
      in
      let y = Mp_cholesky.solve_lower a z in
      let quad_form = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. y in
      assemble ~status ~n ~log_det:(Mp_cholesky.log_det a) ~quad_form
        ~precision_fractions:(Precision_map.fractions report.Mp_cholesky.pmap)
        ())
  | Exact | Tlr _ -> (
    (* No precision to escalate: indefiniteness at FP64 (or under the TLR
       compression) is reported, not raised, matching the Mixed path. *)
    match evaluate engine ~cov ~locs ~z with
    | e -> e
    | exception Blas.Not_positive_definite _ ->
      indefinite_evaluation ~precision_fractions:[ (Fpformat.Fp64, 1.) ])

let loglik engine ~cov ~locs ~z =
  (evaluate_robust engine ~cov ~locs ~z).loglik
