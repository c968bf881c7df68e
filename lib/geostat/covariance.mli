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

val sqexp : ?nugget:float -> sigma2:float -> beta:float -> unit -> t
val matern : ?nugget:float -> sigma2:float -> beta:float -> nu:float -> unit -> t

val powexp : ?nugget:float -> sigma2:float -> beta:float -> power:float -> unit -> t
(** [power] ∈ (0, 2]; [power = 2] coincides with {!sqexp} at range β²,
    [power = 1] is the exponential (Matérn ν = ½ at the same range). *)

val spherical : ?nugget:float -> sigma2:float -> beta:float -> unit -> t
(** Compactly supported: exactly zero beyond distance β (classical in
    mining geostatistics; gives genuinely sparse far-field tiles). *)

(** {2 Evaluation}

    Every evaluation goes through one per-θ kernel: the covariance with
    what depends on θ alone computed once.  For a Matérn with ν ≠ ½ that
    is the normaliser [2^{1−ν}/Γ(ν)] and the {!Geomix_specfun.Bessel.k_plan};
    each entry then pays one [K_ν] evaluation and no Γ call.  [eval],
    [element] and both builders evaluate the same expressions in the same
    order, so they agree bit for bit with one another; the test suites pin
    reference bit patterns of the entries.  A Matérn smoothness [ν < 0]
    (only reachable by building the record directly) raises
    [Invalid_argument] when the kernel is built. *)

val eval : t -> float -> float
(** Covariance at distance [h ≥ 0] (without the nugget).  Staged:
    [eval t] builds the kernel, so a caller evaluating many distances
    should apply it once and reuse the closure. *)

val element : t -> Locations.t -> int -> int -> float
(** Entry (i, j) of the covariance matrix Σ(θ) (nugget included at i = j).
    Staged like {!eval}: [element t locs] builds the kernel once and returns
    the entry function, which is what [Precision_map.of_element_fn] and the
    other element-function callers should be passed. *)

val build_dense : t -> Locations.t -> Geomix_linalg.Mat.t
(** The full symmetric matrix: the lower triangle evaluated, the upper
    mirrored. *)

val build_tiled : t -> Locations.t -> nb:int -> Geomix_tile.Tiled.t
(** The lower tiles, each filled through its buffer.  A diagonal tile
    evaluates its lower triangle and mirrors it; {!Locations.distance} is
    exactly symmetric, so the tiles equal {!build_dense}'s entries bit for
    bit, upper halves of diagonal tiles included. *)

val theta : t -> float array
(** Parameter vector: [[σ²; β]] for [Sqexp], [[σ²; β; ν]] for [Matern]. *)

val with_theta : t -> float array -> t
(** Same family/nugget, new parameter vector. *)
