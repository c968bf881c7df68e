(** Kriging prediction at unobserved sites — the downstream use the paper's
    Section VII-B motivates ("once these parameters are estimated, the
    model can be utilized for predicting future measurements").

    The simple-kriging predictor for a zero-mean field is
    [ẑ* = Σ*ᵀ·Σ⁻¹·z] with conditional variance
    [σ*² = C(0) − k*ᵀ·Σ⁻¹·k*] per site. *)

type t = {
  mean : float array;      (** predictions ẑ* *)
  variance : float array;  (** conditional variances *)
}

val predict :
  cov:Covariance.t ->
  factor:Geomix_tile.Tiled.t ->
  obs_locs:Locations.t ->
  z:float array ->
  new_locs:Locations.t ->
  t
(** Exact FP64 kriging from observed measurements to the new sites (both
    location sets must share the dimension), through the tile triangular
    solves against [factor] — {!Field.factor}[ cov obs_locs], which the
    caller builds (and may also {!Field.draw} from).  Up to one 64-wide
    tile the results are bitwise a dense Cholesky's; beyond it the solves
    sum one tile at a time, which moves them by a few units of roundoff. *)

val mse : predicted:float array -> truth:float array -> float
(** Mean squared prediction error against held-out truth. *)
