(** A BOBYQA-flavoured bound-constrained minimiser.

    Like Powell's BOBYQA (which the paper uses through NLOPT), this is a
    derivative-free trust-region method over a quadratic model; unlike the
    original it keeps the model {e separable} (a diagonal quadratic rebuilt
    from a 2n+1 coordinate stencil each outer iteration), which makes it a
    few dozen lines while retaining the bound handling and trust-region
    dynamics.  Good on the smooth low-dimensional likelihood surfaces of
    the MLE problems; {!Nelder_mead} is more robust on noisy ones. *)

type result = {
  x : float array;
  fval : float;
  evals : int;
  converged : bool;  (** trust region shrank below [tol] *)
}

val minimize :
  ?max_evals:int ->
  ?tol:float ->
  lower:float array ->
  upper:float array ->
  x0:float array ->
  (float array -> float) ->
  result
(** The initial trust radius is 0.25 of the smallest box width; [tol] is
    the final radius (default 1e-9, relative to box width). *)
