(** Mixed-precision direct solve with iterative refinement.

    The paper's related work (Haidar et al., ICCS'18 — ref [33]) obtains
    energy-efficient linear solvers by factorizing in low precision and
    recovering FP64 accuracy through iterative refinement.  GeoMix composes
    the same recipe from its pieces: factorize Σ once under an adaptive
    precision map, then iterate

    {v r = b − Σ·x;   L·Lᵀ·d = r;   x ← x + d v}

    with residuals and updates in FP64.  Each sweep multiplies the error by
    roughly the factorization's relative accuracy, so a handful of sweeps
    reach FP64-level backward error while all O(n³) work stayed in reduced
    precision — without keeping matrix copies in every precision, the
    advantage the paper claims over [33]. *)

open Geomix_tile

type result = {
  x : float array;
  iterations : int;           (** refinement sweeps performed *)
  residual_norms : float list;(** ‖b − Σx‖₂/‖b‖₂ after each sweep, first-to-last *)
  converged : bool;
}

val solve :
  ?max_iterations:int ->
  ?tolerance:float ->
  a:Tiled.t ->
  factor:Tiled.t ->
  b:float array ->
  unit ->
  result
(** [solve ~a ~factor ~b ()] solves [A·x = b] where [factor] is a (possibly
    low-precision) tiled Cholesky factor of [a] (which still holds the
    original matrix).  Defaults: [max_iterations = 30],
    [tolerance = 1e-12] on the relative residual. *)
