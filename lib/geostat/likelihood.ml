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

let sum_squares = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.

let tile_size = function Exact -> Field.nb | Mixed { nb; _ } | Tlr { nb; _ } -> nb

(* The map an engine runs under: [Exact] is [Mixed] under the all-FP64 map
   at [Field]'s tile size; a [Tlr] engine without [u_req] has none. *)
let precision_map engine a =
  match engine with
  | Exact -> Some (Precision_map.uniform ~nt:(Tiled.nt a) Fpformat.Fp64)
  | Mixed { u_req; _ } | Tlr { u_req = Some u_req; _ } ->
    Some (Precision_map.of_tiled ~u_req a)
  | Tlr { u_req = None; _ } -> None

let fractions = Option.fold ~none:[ (Fpformat.Fp64, 1.) ] ~some:Precision_map.fractions

let evaluate engine ~cov ~locs ~z =
  let n = Locations.count locs in
  assert (Array.length z = n);
  let a = Covariance.build_tiled cov locs ~nb:(tile_size engine) in
  let pmap = precision_map engine a in
  match engine with
  | Exact | Mixed _ ->
    Mp_cholesky.factorize ~pmap:(Option.get pmap) a;
    assemble ~n ~log_det:(Mp_cholesky.log_det a)
      ~quad_form:(sum_squares (Mp_cholesky.solve_lower a z))
      ~precision_fractions:(fractions pmap) ()
  | Tlr { tol; _ } ->
    let t = Geomix_tlr.Tlr.compress ?precision:pmap ~tol a in
    Geomix_tlr.Tlr.cholesky t;
    assemble ~n ~log_det:(Geomix_tlr.Tlr.log_det t)
      ~quad_form:(sum_squares (Geomix_tlr.Tlr.solve_lower t z))
      ~precision_fractions:(fractions pmap) ()

let evaluate_robust ?faults ?retry ?obs engine ~cov ~locs ~z =
  match engine with
  | Exact | Mixed _ -> (
    let n = Locations.count locs in
    assert (Array.length z = n);
    let a = Covariance.build_tiled cov locs ~nb:(tile_size engine) in
    let pmap = Option.get (precision_map engine a) in
    let report = Mp_cholesky.factorize_robust ?faults ?retry ?obs ~pmap a in
    let precision_fractions = Precision_map.fractions report.Mp_cholesky.pmap in
    match report.Mp_cholesky.outcome with
    | Mp_cholesky.Indefinite _ -> indefinite_evaluation ~precision_fractions
    | Mp_cholesky.Factorized ->
      let status =
        match report.Mp_cholesky.escalations with
        | [] -> Clean
        | es -> Escalated es
      in
      assemble ~status ~n ~log_det:(Mp_cholesky.log_det a)
        ~quad_form:(sum_squares (Mp_cholesky.solve_lower a z))
        ~precision_fractions ())
  | Tlr _ -> (
    (* No precision to escalate: indefiniteness under the TLR compression
       is reported, not raised, matching the Cholesky path. *)
    match evaluate engine ~cov ~locs ~z with
    | e -> e
    | exception Blas.Not_positive_definite _ ->
      indefinite_evaluation ~precision_fractions:[ (Fpformat.Fp64, 1.) ])

let loglik engine ~cov ~locs ~z =
  (evaluate_robust engine ~cov ~locs ~z).loglik
