(** Differential oracles: independent re-derivations of the paper's core
    results, used by the property suites to cross-check the optimized
    implementations. *)

module Fpformat = Geomix_precision.Fpformat

val comm_map_agrees : Geomix_core.Precision_map.t -> bool
(** [Comm_map.compute] agrees on every broadcast tile with a deliberately
    naive O(NT) per tile (O(NT³) total) reimplementation of Algorithm 2:
    for tile (i, j), i ≥ j, enumerate {e all} consumer kernels, take the
    highest input format any of them needs, cap at the storage format,
    STC iff strictly below storage. *)

val residual_bound : ?c:float -> pmap:Geomix_core.Precision_map.t -> Geomix_tile.Tiled.t -> float
(** Higham–Mary-style bound on the relative Cholesky residual
    ‖A − LLᵀ‖/‖A‖ of a factorization executing tile (i,j) with rule
    epsilon ε(i,j):  c · NT · max_ij ε(i,j)·‖A_ij‖/‖A‖ + FP64 floor
    (c defaults to 64). *)

val factor_residual :
  ?pool:Geomix_parallel.Pool.t ->
  pmap:Geomix_core.Precision_map.t ->
  nb:int ->
  Geomix_linalg.Mat.t ->
  float
(** Relative residual of the mixed-precision factorization of a dense SPD
    matrix under [pmap]. *)

val check_cholesky :
  ?c:float ->
  pmap:Geomix_core.Precision_map.t ->
  nb:int ->
  Geomix_linalg.Mat.t ->
  float * float * float
(** The differential check: factorize under [pmap], compute the bound, and
    factorize in pure FP64.  Returns (mixed residual, bound, fp64
    residual); the caller asserts residual ≤ bound and fp64 residual ≤ the
    FP64 floor. *)
