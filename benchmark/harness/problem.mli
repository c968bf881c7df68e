(** The seeded inputs every factorizing workload shares, and the likelihood
    operation itself.

    {b Inputs.}  Sites are a jittered grid in the unit square, sorted in
    Morton order; the data are one realisation of a Matérn field
    (σ² = 1, β = 0.1, ν = 0.5) drawn at exact FP64.  Operation [k]
    evaluates the log-likelihood at the [k]-th parameter point θ of a
    seeded sequence, log-uniform over σ² ∈ [0.5, 2], β ∈ [0.05, 0.2] and
    ν ∈ [0.4, 0.8].  The sequence is a randomly shifted R3 Kronecker
    sequence: every prefix covers the box evenly, so runs with different
    seeds see the same mix of cheap and expensive precision maps and
    their medians agree.

    {b The operation} is the public call chain of
    {!Geomix_geostat.Likelihood.evaluate_robust} — covariance assembly,
    the norm-rule precision map, Algorithm 2's communication map (computed
    explicitly, so it can be timed; it is the map the factorization would
    derive itself), the factorization, forward solve, log-determinant and
    assembly — each call wrapped in a {!Tracer} span. *)

module Covariance = Geomix_geostat.Covariance
module Locations = Geomix_geostat.Locations
module Likelihood = Geomix_geostat.Likelihood
module Precision_map = Geomix_core.Precision_map
module Comm_map = Geomix_core.Comm_map
module Mp_cholesky = Geomix_core.Mp_cholesky
module Tiled = Geomix_tile.Tiled

val u_req : float
(** 1e-6, the accuracy the norm rule targets. *)

val data_cov : Covariance.t

type inputs = {
  locs : Locations.t;
  z : float array;
  shift : float array;  (** the seeded start of the θ sequence *)
}

val inputs : seed:int -> n:int -> inputs
(** Sites, data and θ-sequence shift: a pure function of [(seed, n)]. *)

val theta : inputs -> int -> Covariance.t
(** The covariance at the [k]-th parameter point. *)

type factor =
  pmap:Precision_map.t -> cmap:Comm_map.t -> Tiled.t -> Mp_cholesky.report
(** The factorization step of the chain. *)

val robust : ?pool:Geomix_parallel.Pool.t -> ?profile:Geomix_obs.Profile.collector ->
  ?obs:Geomix_obs.Metrics.t -> unit -> factor
(** {!Mp_cholesky.factorize_robust} with the given hooks. *)

type result = {
  eval : Likelihood.evaluation;
  a : Tiled.t;  (** the factor (or the restored input when indefinite) *)
  pmap : Precision_map.t;  (** the requested map *)
  cmap : Comm_map.t;
  escalations : int;
}

val chain :
  Tracer.t -> op:int -> ?factor_span:string -> factor:factor -> nb:int ->
  inputs -> Covariance.t -> result
(** One likelihood operation under the root span ["op"]; the
    factorization's span is named [factor_span] (default
    ["core.factorize"]). *)

val chain_spans : string list
(** The child span names of {!chain} other than the factorization. *)

val bits_equal : float -> float -> bool

val same_eval : Likelihood.evaluation -> Likelihood.evaluation -> bool
(** Bitwise equality of log-likelihood, log-determinant and quadratic
    form. *)

val same_factor : Tiled.t -> Tiled.t -> bool
(** Bitwise equality of every stored tile. *)

val rel_err : exact:Likelihood.evaluation -> Likelihood.evaluation -> float
(** [|ℓ − ℓ_exact| / |ℓ_exact|]. *)

val motion : result -> Comm_map.motion
(** [Comm_map.motion] of the operation's maps. *)
