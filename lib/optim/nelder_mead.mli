(** Bound-constrained Nelder–Mead simplex minimisation.

    The paper drives MLE with NLOPT's BOBYQA; this library substitutes
    derivative-free local optimisers of the same role (see DESIGN.md).
    Nelder–Mead with projection onto the box is the default engine of
    {!Geomix_geostat.Mle}; {!Bobyqa_lite} offers a quadratic-model
    alternative. *)

type result = {
  x : float array;       (** best point found *)
  fval : float;          (** objective there *)
  evals : int;           (** objective evaluations spent *)
  converged : bool;      (** simplex diameter and f-spread under [tol] *)
}

val minimize :
  ?max_evals:int ->
  ?tol:float ->
  lower:float array ->
  upper:float array ->
  x0:float array ->
  (float array -> float) ->
  result
(** [minimize ~lower ~upper ~x0 f] minimises [f] over the box.  [x0] is
    clipped into the box; the initial simplex steps 0.25 of each box
    width along each coordinate; [tol] (default 1e-9, the paper's NLOPT
    tolerance) bounds both the simplex size and the objective spread at
    convergence; [max_evals] defaults to 500·dim. *)
