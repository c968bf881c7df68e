(** Modified Bessel functions of real (fractional) order.

    The 2D Matérn covariance of the paper needs [K_ν(x)] for arbitrary real
    smoothness ν ∈ (0, 2].  The implementation follows the classical
    Steed/Temme scheme (Numerical Recipes' [bessik]): a Temme series
    ([x < 2]) or Steed's CF2 ([x ≥ 2]) for [K_μ, K_{μ+1}] with |μ| ≤ ½,
    then upward recurrence in the order.  [I_ν] additionally runs CF1 for
    the [I] ratio, a downward recurrence and the Wronskian normalisation;
    [K_ν] alone needs none of those.  Accuracy is ~1e-13 relative over the
    ranges the covariance evaluates. *)

type k_plan
(** The part of [K_ν] that depends on ν alone, computed once: the
    recurrence count, the reduced order μ, and Temme's [πμ/sin πμ] and
    reciprocal-Γ pair (two {!Gamma.gamma} calls).  A covariance builds one
    per θ and evaluates every matrix entry through it. *)

val k_plan : nu:float -> k_plan
(** @raise Invalid_argument if [nu < 0] or [nu] is NaN (same message as
    {!bessel_ik}). *)

val k_eval : k_plan -> float -> float
(** [k_eval (k_plan ~nu) x] is [K_ν(x)] for [x > 0]: Temme or CF2, then the
    upward recurrence.  It is bitwise equal to [snd (bessel_ik ~nu x)],
    which computes [K_ν] with the same operations.
    @raise Invalid_argument if [x ≤ 0] or [x] is NaN. *)

val bessel_ik : nu:float -> float -> float * float
(** [bessel_ik ~nu x] is [(I_ν(x), K_ν(x))] for [nu ≥ 0] and [x > 0].
    @raise Invalid_argument on out-of-domain input. *)

val bessel_k : nu:float -> float -> float
(** [bessel_k ~nu x = k_eval (k_plan ~nu) x]: [K_ν(x)] without computing
    [I_ν].  Callers that evaluate many [x] at one ν should build the plan
    once. *)

val bessel_i : nu:float -> float -> float
(** [bessel_i ~nu x = fst (bessel_ik ~nu x)]. *)

val bessel_k_half : float -> float
(** Closed form [K_{1/2}(x) = √(π/(2x))·e^{-x}], used as a fast path (the
    paper's "rough field" ν = 0.5 makes Matérn exponential) and as a test
    oracle. *)
