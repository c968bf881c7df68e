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
  obs_locs:Locations.t ->
  z:float array ->
  new_locs:Locations.t ->
  t
(** Exact FP64 kriging from observed measurements to the new sites (both
    location sets must share the dimension), through {!Field.factor} and
    the tile triangular solves.  Up to one 64-wide tile the results are
    bitwise a dense Cholesky's; beyond it the solves sum one tile at a
    time, which moves them by a few units of roundoff.
    @raise Geomix_linalg.Blas.Not_positive_definite as {!Field.factor}. *)

val mse : predicted:float array -> truth:float array -> float
(** Mean squared prediction error against held-out truth. *)
