(** The paper's two covariance families (Section III-A):

    - squared exponential (2D or 3D): [C(h) = σ²·exp(−h²/β)];
    - 2D Matérn: [C(h) = σ²·(2^{1−ν}/Γ(ν))·(h/β)^ν·K_ν(h/β)].

    A small nugget [τ²] is added on the diagonal.  The paper relies on the
    testbed's 40 000-site spread for numerical positive-definiteness; at the
    reduced scales of this reproduction the squared-exponential family needs
    explicit regularisation, so generation and estimation consistently use
    the same fixed nugget (documented in DESIGN.md). *)

type family =
  | Sqexp      (** squared exponential: [σ²·exp(−h²/β)] *)
  | Matern     (** Matérn: [σ²·(2^{1−ν}/Γ(ν))·(h/β)^ν·K_ν(h/β)] *)
  | Powexp     (** powered exponential: [σ²·exp(−(h/β)^ν)], 0 < ν ≤ 2 *)
  | Spherical  (** spherical: [σ²·(1 − 1.5(h/β) + 0.5(h/β)³)] for h < β, else 0 *)

type t = {
  family : family;
  sigma2 : float;  (** variance σ² *)
  beta : float;    (** range β *)
  nu : float;      (** smoothness ν / power (ignored by [Sqexp], [Spherical]) *)
  nugget : float;  (** τ² added at h = 0 *)
}

val default_nugget : float
(** 1e-6 — small enough not to disturb estimation at the paper's accuracy
    levels, large enough to keep strongly-correlated squared-exponential
    matrices positive definite at reduced n. *)

val of_family : ?nugget:float -> family -> sigma2:float -> beta:float -> nu:float -> t
(** The covariance of [family]: [nu] is the Matérn smoothness or the
    powered-exponential power, and is ignored by [Sqexp] and [Spherical].
    The nugget defaults to {!default_nugget}, as in every constructor
    below. *)

val sqexp : ?nugget:float -> sigma2:float -> beta:float -> unit -> t
(** Every constructor raises [Invalid_argument] naming the parameter
    unless [sigma2 > 0], [beta > 0] and the family's smoothness domain
    holds. *)

val matern : ?nugget:float -> sigma2:float -> beta:float -> nu:float -> unit -> t
(** Smoothness [nu > 0]. *)

val powexp : ?nugget:float -> sigma2:float -> beta:float -> power:float -> unit -> t
(** [power] ∈ (0, 2]; [power = 2] coincides with {!sqexp} at range β²,
    [power = 1] is the exponential (Matérn ν = ½ at the same range). *)

val spherical : ?nugget:float -> sigma2:float -> beta:float -> unit -> t
(** Compactly supported: exactly zero beyond distance β (classical in
    mining geostatistics; gives genuinely sparse far-field tiles). *)

(** {2 Evaluation}

    Every evaluation goes through one per-θ kernel: the covariance with
    what depends on θ alone computed once.  For a Matérn with ν ≠ ½ that
    is σ²·[2^{1−ν}/Γ(ν)], the {!Geomix_specfun.Bessel.k_plan} and, for
    ν ≤ 4, a Chebyshev fit of [g(x) = √x·eˣ·K_ν(x)] on x = h/β ≥ 2
    (4 pieces × 12 coefficients in 8/x, fitted at nodes from
    {!Geomix_specfun.Bessel.k_scaled}); each entry then pays no Γ call.
    [eval], [element] and both builders evaluate the same expressions in
    the same order, so they agree bit for bit with one another.

    The numeric contract against the reference
    σ²·(2^{1−ν}/Γ(ν))·x^ν·{!Geomix_specfun.Bessel.bessel_k}:
    - bitwise for x < 2 (Temme through [k_eval]), for ν > 4 (Steed's CF2,
      where the fit's error would grow), for ν = ½ (the exponential) and
      for the other three families;
    - within 1e-13 relative for x ≥ 2 at ν ≤ 4, wherever the reference is
      a normal float: the entry is σ²·norm·x^{ν−½}·e^{−x}·g(x) with g from
      the fit (measured worst 4e-15).
    Entries that underflow at huge x are 0.  The constructors and
    {!with_theta} raise [Invalid_argument] naming the parameter when σ² or
    β is not positive or ν is outside the family's domain (NaN included). *)

val eval : t -> float -> float
(** Covariance at distance [h ≥ 0] (without the nugget).  Staged:
    [eval t] builds the kernel, so a caller evaluating many distances
    should apply it once and reuse the closure. *)

val element : t -> Locations.t -> int -> int -> float
(** Entry (i, j) of the covariance matrix Σ(θ) (nugget included at i = j).
    Staged like {!eval}: [element t locs] builds the kernel once and returns
    the entry function, which is what [Precision_map.of_element_fn] and the
    other element-function callers should be passed. *)

val build_tiled : t -> Locations.t -> nb:int -> Geomix_tile.Tiled.t
(** The lower tiles, each filled through its buffer.  A diagonal tile
    evaluates its lower triangle and mirrors it; {!Locations.distance} is
    exactly symmetric, so the tiles hold the same entries bit for bit at
    every [nb], upper halves of diagonal tiles included. *)

val build_dense : t -> Locations.t -> Geomix_linalg.Mat.t
(** The full symmetric matrix, built as one [n × n] tile — the dense
    reference tests and figure benches compare against. *)

val theta : t -> float array
(** Parameter vector: [[σ²; β]] for [Sqexp], [[σ²; β; ν]] for [Matern]. *)

val with_theta : t -> float array -> t
(** Same family/nugget, new parameter vector, checked as the constructors
    check theirs.
    @raise Invalid_argument on a wrong parameter count or an
    out-of-domain parameter. *)
