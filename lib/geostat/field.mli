(** Synthetic Gaussian random field realisations: the Monte-Carlo datasets
    of Section VII-B are measurement vectors [Z = L·e] with [Σ(θ_true) =
    L·Lᵀ] and [e ~ N(0, I)], drawn at exact FP64 precision.

    [L] comes from the one tile Cholesky ({!Geomix_core.Mp_cholesky})
    under an all-FP64 precision map at tile size {!nb}; its factor is
    bitwise the dense FP64 Cholesky's, because every entry sums its
    updates in the same order. *)

val nb : int
(** 64: the tile size of every FP64 factor of Σ(θ) — this module's,
    {!Likelihood.Exact}'s and {!Prediction}'s.  Up to 64 sites Σ is one
    tile. *)

val factor : Covariance.t -> Locations.t -> Geomix_tile.Tiled.t
(** The FP64 tile Cholesky factor of Σ(θ) at the given sites (lower
    triangles; diagonal tiles keep Σ's entries above the diagonal).
    @raise Geomix_linalg.Blas.Not_positive_definite with the global pivot
    index if Σ(θ) is numerically indefinite (increase the nugget or reduce
    the correlation). *)

val draw : Geomix_util.Rng.t -> Geomix_tile.Tiled.t -> float array
(** One realisation [z = L·e] from a factor built by {!factor}, summed
    column by column as a dense lower-triangular product would.  A caller
    that also needs the factor for something else (kriging, a solve)
    builds it once and draws from it. *)

val synthesize :
  rng:Geomix_util.Rng.t -> cov:Covariance.t -> Locations.t -> float array
(** [draw rng (factor cov locs)]: one realisation of the zero-mean field at
    the given sites.
    @raise Geomix_linalg.Blas.Not_positive_definite as {!factor}. *)

val synthesize_many :
  rng:Geomix_util.Rng.t -> cov:Covariance.t -> replicas:int -> Locations.t ->
  float array array
(** Independent replicas sharing one factorization of Σ. *)
