(** The Gaussian log-likelihood of Eq. (1):

    {v ℓ(θ) = −(n/2)·log 2π − ½·log|Σ(θ)| − ½·Zᵀ·Σ(θ)⁻¹·Z v}

    evaluated through the tile Cholesky of Σ(θ) — under the all-FP64
    precision map (exact), or under the adaptive map for a given accuracy
    [u_req] (which is precisely what the paper accelerates). *)

type engine =
  | Exact
      (** FP64 — the "exact" reference of Figs 5–6: [Mixed] under the
          all-FP64 map at {!Field.nb}.  Its factor and [log_det] are
          bitwise a dense FP64 Cholesky's; its [quad_form] is too up to 64
          sites, and beyond that within a few units of roundoff (the
          forward solve sums one tile at a time). *)
  | Mixed of {
      u_req : float;                     (** accuracy of the norm rule *)
      nb : int;                          (** tile size *)
    }
  | Tlr of {
      tol : float;                       (** TLR compression tolerance *)
      nb : int;
      u_req : float option;              (** also apply the precision map *)
    }
      (** tile low-rank factorization (the paper's future-work extension),
          optionally composed with the adaptive precision map *)

val mixed : u_req:float -> nb:int -> unit -> engine
(** [Mixed { u_req; nb }]. *)

type status =
  | Clean  (** factorized under the originally requested precision map *)
  | Escalated of Geomix_core.Mp_cholesky.escalation list
      (** factorized, but only after precision escalation — the reported
          [precision_fractions] are those of the escalated map actually
          used *)
  | Indefinite
      (** Σ(θ) is indefinite even at full FP64; [loglik] is
          [neg_infinity] and [log_det]/[quad_form] are [nan] *)

type evaluation = {
  loglik : float;
  log_det : float;
  quad_form : float;         (** Zᵀ·Σ⁻¹·Z *)
  precision_fractions : (Geomix_precision.Fpformat.t * float) list;
      (** tile precision mix used ([\[(Fp64, 1.)\]] for [Exact]) *)
  status : status;
}

val assemble :
  ?status:status ->
  n:int ->
  log_det:float ->
  quad_form:float ->
  precision_fractions:(Geomix_precision.Fpformat.t * float) list ->
  unit ->
  evaluation
(** Combine the two factorization-derived terms into Eq. (1)'s
    log-likelihood ([status] defaults to [Clean]).  The entry point for
    callers that drive the factorization themselves — the request server
    evaluates many replicates against one factor this way. *)

val evaluate : engine -> cov:Covariance.t -> locs:Locations.t -> z:float array -> evaluation
(** Evaluate with no recovery: the factorization runs once under the map the
    norm rule produces, and [status] is always [Clean].
    @raise Geomix_linalg.Blas.Not_positive_definite when Σ(θ) is
    numerically indefinite at the working precision. *)

val evaluate_robust :
  ?faults:Geomix_fault.Fault.t ->
  ?retry:Geomix_fault.Retry.policy ->
  ?obs:Geomix_obs.Metrics.t ->
  engine ->
  cov:Covariance.t ->
  locs:Locations.t ->
  z:float array ->
  evaluation
(** Evaluate through {!Geomix_core.Mp_cholesky.factorize_robust}: a
    mixed-precision factorization that loses positive definiteness is
    escalated (band, then full FP64) instead of failing, and the result's
    [status] says what happened.  Only genuinely indefinite Σ(θ) yields
    [Indefinite] — reported in the [evaluation], never raised.  [?faults]
    and [?retry] additionally arm fault injection and supervised task retry
    inside the factorization (chaos testing); [?obs] collects the recovery
    counters.  An [Exact] map is all FP64, so it never escalates: an
    indefinite Σ(θ) is [Indefinite] at once.  A [Tlr] engine has no
    precision to escalate either: its indefiniteness is mapped to
    [Indefinite] directly. *)

val loglik : engine -> cov:Covariance.t -> locs:Locations.t -> z:float array -> float
(** [(evaluate_robust ...).loglik]: indefiniteness yields [neg_infinity] so
    optimisers treat such θ as infeasible, and recoverable precision
    failures are escalated transparently rather than discarding the
    candidate. *)
