let eps = 1e-16
let fpmin = 1e-300
let maxit = 10000
let xmin = 2.

let domain_error () = invalid_arg "Bessel.bessel_ik: requires x > 0 and nu >= 0"

(* (1/Γ(1-μ) - 1/Γ(1+μ)) / (2μ)  and  (1/Γ(1-μ) + 1/Γ(1+μ)) / 2,
   the Temme auxiliary functions; the direct formula is safe for
   |μ| ≥ 1e-6 and the μ→0 limit (-γ, 1) below that. *)
let temme_gammas mu =
  if Float.abs mu < 1e-6 then (-.Gamma.euler_gamma, 1.)
  else begin
    let gammi = 1. /. Gamma.gamma (1. -. mu) in
    let gampl = 1. /. Gamma.gamma (1. +. mu) in
    ((gammi -. gampl) /. (2. *. mu), (gammi +. gampl) /. 2.)
  end

(* Everything K_ν needs that depends on ν alone: the recurrence count nl,
   the reduced order μ = ν − nl ∈ [−½, ½), and Temme's πμ/sin πμ and
   Γ-function pair with the two combinations the series starts from. *)
type k_plan = {
  nl : int;
  mu : float;
  fact : float;
  gam1 : float;
  gam2 : float;
  gampl : float;
  gammi : float;
}

let k_plan ~nu =
  if nu < 0. || Float.is_nan nu then domain_error ();
  let nl = int_of_float (nu +. 0.5) in
  let mu = nu -. float_of_int nl in
  let pimu = Float.pi *. mu in
  let fact = if Float.abs pimu < eps then 1. else pimu /. sin pimu in
  let gam1, gam2 = temme_gammas mu in
  { nl; mu; fact; gam1; gam2; gampl = gam2 -. (mu *. gam1); gammi = gam2 +. (mu *. gam1) }

(* Temme's series for K_μ(x) and K_{μ+1}(x), x < 2, |μ| ≤ 1/2. *)
let temme_series plan x =
  let mu = plan.mu in
  let x2 = x /. 2. in
  let d = -.log x2 in
  let e = mu *. d in
  let fact2 = if Float.abs e < eps then 1. else sinh e /. e in
  let ff = ref (plan.fact *. ((plan.gam1 *. cosh e) +. (plan.gam2 *. fact2 *. d))) in
  let sum = ref !ff in
  let e = exp e in
  let p = ref (0.5 *. e /. plan.gampl) in
  let q = ref (0.5 /. (e *. plan.gammi)) in
  let c = ref 1. in
  let d = x2 *. x2 in
  let sum1 = ref !p in
  let mu2 = mu *. mu in
  (try
     for i = 1 to maxit do
       let fi = float_of_int i in
       ff := ((fi *. !ff) +. !p +. !q) /. ((fi *. fi) -. mu2);
       c := !c *. d /. fi;
       p := !p /. (fi -. mu);
       q := !q /. (fi +. mu);
       let del = !c *. !ff in
       sum := !sum +. del;
       let del1 = !c *. (!p -. (fi *. !ff)) in
       sum1 := !sum1 +. del1;
       if Float.abs del < Float.abs !sum *. eps then raise Exit
     done;
     invalid_arg "Bessel: Temme series failed to converge"
   with Exit -> ());
  (!sum, !sum1 *. 2. /. x)

(* Steed's CF2, x ≥ 2, |μ| ≤ 1/2: the continued-fraction sum s and the
   ratio term h, from which K_μ(x) = √(π/2x)·e^{−x}/s and
   K_{μ+1}(x) = K_μ(x)·(μ + x + ½ − h)/x. *)
let cf2 ~mu x =
  let mu2 = mu *. mu in
  let b = ref (2. *. (1. +. x)) in
  let d = ref (1. /. !b) in
  let delh = ref !d in
  let h = ref !delh in
  let q1 = ref 0. and q2 = ref 1. in
  let a1 = 0.25 -. mu2 in
  let q = ref a1 and c = ref a1 in
  let a = ref (-.a1) in
  let s = ref (1. +. (!q *. !delh)) in
  (try
     for i = 2 to maxit do
       a := !a -. (2. *. float_of_int (i - 1));
       c := -. !a *. !c /. float_of_int i;
       let qnew = (!q1 -. (!b *. !q2)) /. !a in
       q1 := !q2;
       q2 := qnew;
       q := !q +. (!c *. qnew);
       b := !b +. 2.;
       d := 1. /. (!b +. (!a *. !d));
       delh := ((!b *. !d) -. 1.) *. !delh;
       h := !h +. !delh;
       let dels = !q *. !delh in
       s := !s +. dels;
       if Float.abs (dels /. !s) < eps then raise Exit
     done;
     invalid_arg "Bessel: CF2 failed to converge"
   with Exit -> ());
  (!s, a1 *. !h)

(* (K_μ(x), K_{μ+1}(x)) from CF2. *)
let steed_cf2 ~mu x =
  let s, h = cf2 ~mu x in
  let rkmu = sqrt (Float.pi /. (2. *. x)) *. exp (-.x) /. s in
  let rk1 = rkmu *. (mu +. x +. 0.5 -. h) /. x in
  (rkmu, rk1)

(* (K_μ(x), K_{μ+1}(x)) at the reduced order. *)
let k_mu plan x = if x < xmin then temme_series plan x else steed_cf2 ~mu:plan.mu x

(* Upward recurrence in the order from (K_μ, K_{μ+1}) to K_ν. *)
let k_up plan x (rkmu, rk1) =
  let xi2 = 2. *. (1. /. x) in
  let rkmu = ref rkmu and rk1 = ref rk1 in
  for i = 1 to plan.nl do
    let rktemp = ((plan.mu +. float_of_int i) *. xi2 *. !rk1) +. !rkmu in
    rkmu := !rk1;
    rk1 := rktemp
  done;
  !rkmu

let k_eval plan x =
  if not (x > 0.) then domain_error ();
  k_up plan x (k_mu plan x)

(* The same CF2 and recurrence with K_μ scaled by √x·eˣ: the recurrence is
   linear, so the result is √x·eˣ·K_ν(x). *)
let k_scaled plan x =
  if not (x >= xmin && Float.is_finite x) then
    invalid_arg "Bessel.k_scaled: requires finite x >= 2";
  let mu = plan.mu in
  let s, h = cf2 ~mu x in
  let rkmu = sqrt (Float.pi /. 2.) /. s in
  k_up plan x (rkmu, rkmu *. (mu +. x +. 0.5 -. h) /. x)

let bessel_ik ~nu x =
  if not (x > 0.) then domain_error ();
  let plan = k_plan ~nu in
  let xi = 1. /. x in
  let xi2 = 2. *. xi in
  (* CF1 for I'_ν/I_ν. *)
  let h = ref (nu *. xi) in
  if !h < fpmin then h := fpmin;
  let b = ref (xi2 *. nu) in
  let d = ref 0. and c = ref !h in
  (try
     for _i = 1 to maxit do
       b := !b +. xi2;
       d := 1. /. (!b +. !d);
       c := !b +. (1. /. !c);
       let del = !c *. !d in
       h := !h *. del;
       if Float.abs (del -. 1.) < eps then raise Exit
     done;
     invalid_arg "Bessel: CF1 failed to converge (x too large?)"
   with Exit -> ());
  (* Downward recurrence from ν to μ on unnormalised I. *)
  let ril = ref fpmin in
  let ripl = ref (!h *. fpmin) in
  let ril1 = !ril in
  let fact = ref (nu *. xi) in
  for _l = plan.nl downto 1 do
    let ritemp = (!fact *. !ril) +. !ripl in
    fact := !fact -. xi;
    ripl := (!fact *. ritemp) +. !ril;
    ril := ritemp
  done;
  let f = !ripl /. !ril in
  let ((rkmu, rk1) as k) = k_mu plan x in
  let rkmup = (plan.mu *. xi *. rkmu) -. rk1 in
  (* Wronskian  I_μ K'_μ - I'_μ K_μ = -1/x  normalises I. *)
  let rimu = xi /. ((f *. rkmu) -. rkmup) in
  (rimu *. ril1 /. !ril, k_up plan x k)

let bessel_k ~nu x = k_eval (k_plan ~nu) x
let bessel_i ~nu x = fst (bessel_ik ~nu x)
let bessel_k_half x = sqrt (Float.pi /. (2. *. x)) *. exp (-.x)
