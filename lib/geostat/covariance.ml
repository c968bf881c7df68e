module Gamma = Geomix_specfun.Gamma
module Bessel = Geomix_specfun.Bessel
module Mat = Geomix_linalg.Mat
module Tiled = Geomix_tile.Tiled

type family = Sqexp | Matern | Powexp | Spherical

type t = { family : family; sigma2 : float; beta : float; nu : float; nugget : float }

let default_nugget = 1e-6

(* The constructors' domain checks, shared with [with_theta]; NaN fails
   every one of them. *)
let require what ok = if not ok then invalid_arg ("Covariance: " ^ what)

let check family ~sigma2 ~beta ~nu =
  require "sigma2 must be > 0" (sigma2 > 0.);
  require "beta must be > 0" (beta > 0.);
  match family with
  | Matern -> require "nu must be > 0" (nu > 0.)
  | Powexp -> require "power must be in (0, 2]" (nu > 0. && nu <= 2.)
  | Sqexp | Spherical -> ()

let of_family ?(nugget = default_nugget) family ~sigma2 ~beta ~nu =
  let nu = match family with Matern | Powexp -> nu | Sqexp | Spherical -> nan in
  check family ~sigma2 ~beta ~nu;
  { family; sigma2; beta; nu; nugget }

let sqexp ?nugget ~sigma2 ~beta () = of_family ?nugget Sqexp ~sigma2 ~beta ~nu:nan
let matern ?nugget ~sigma2 ~beta ~nu () = of_family ?nugget Matern ~sigma2 ~beta ~nu

let powexp ?nugget ~sigma2 ~beta ~power () =
  of_family ?nugget Powexp ~sigma2 ~beta ~nu:power

let spherical ?nugget ~sigma2 ~beta () = of_family ?nugget Spherical ~sigma2 ~beta ~nu:nan

(* {2 The Chebyshev fit of the scaled Bessel function}

   For x ≥ 2 a Matérn entry is σ²·norm·x^{ν−½}·e^{−x}·g(x) with
   g(x) = √x·eˣ·K_ν(x), which is smooth and tends to √(π/2).  In
   u = 8/x ∈ (0, 4] (that is, 2(s + 1) for s = 4/x − 1) the range splits
   into [fit_pieces] unit pieces; piece p maps u ∈ [p, p + 1] to
   t = 2(u − p) − 1 ∈ [−1, 1] and holds [fit_terms] Chebyshev coefficients
   interpolating g at the first-kind nodes, which never touch u = 0
   (x = ∞).  The node abscissae and the DCT cosine table depend on
   neither ν nor θ. *)
let fit_pieces = 4
let fit_terms = 12

(* The fit's error grows with ν (3e-15 at ν = 4, 1e-14 at 6, 2e-13 at
   8); above this cap the entries stay on Steed's CF2. *)
let fit_nu_max = 4.

let fit_angle j k =
  Float.pi *. float_of_int j *. (float_of_int k +. 0.5) /. float_of_int fit_terms

(* [fit_cos.(j * fit_terms + k)] = cos(π·j·(k + ½)/N). *)
let fit_cos =
  Array.init (fit_terms * fit_terms) (fun i ->
    cos (fit_angle (i / fit_terms) (i mod fit_terms)))

(* [fit_x.(p * fit_terms + k)]: the k-th node of piece p, as an x. *)
let fit_x =
  Array.init (fit_pieces * fit_terms) (fun i ->
    let t = cos (fit_angle 1 (i mod fit_terms)) in
    8. /. (float_of_int (i / fit_terms) +. (0.5 *. (t +. 1.))))

(* The coefficients of every piece, [c.(p * fit_terms + j)], with c₀
   already halved so that g ≈ Σ_j c_j T_j(t). *)
let fit_coeffs plan =
  let g = Array.map (Bessel.k_scaled plan) fit_x in
  let c = Array.make (fit_pieces * fit_terms) 0. in
  let w = 2. /. float_of_int fit_terms in
  for p = 0 to fit_pieces - 1 do
    for j = 0 to fit_terms - 1 do
      let acc = ref 0. in
      for k = 0 to fit_terms - 1 do
        acc := !acc +. (g.((p * fit_terms) + k) *. fit_cos.((j * fit_terms) + k))
      done;
      c.((p * fit_terms) + j) <- (if j = 0 then 0.5 else 1.) *. w *. !acc
    done
  done;
  c

(* g(x) for x ≥ 2 by Clenshaw's recurrence on the piece holding 8/x. *)
let fit_eval c x =
  let u = 8. /. x in
  let p = Int.min (fit_pieces - 1) (int_of_float u) in
  let t = (2. *. (u -. float_of_int p)) -. 1. in
  let t2 = 2. *. t in
  let base = p * fit_terms in
  let b1 = ref 0. and b2 = ref 0. in
  for j = fit_terms - 1 downto 1 do
    let b = Array.unsafe_get c (base + j) +. (t2 *. !b1) -. !b2 in
    b2 := !b1;
    b1 := b
  done;
  Array.unsafe_get c base +. (t *. !b1) -. !b2

(* The per-θ kernel: the covariance with everything that depends on θ
   alone computed once.  For a Matérn with ν ≠ ½ that is σ²·2^{1−ν}/Γ(ν),
   the K_ν plan and, for ν ≤ [fit_nu_max], the Chebyshev coefficients of
   g (empty above the cap); [plan = None] means no Bessel call. *)
type kernel = {
  cov : t;
  scale : float;
  plan : Bessel.k_plan option;
  fit : float array;
  nu_half : float;
}

let kernel t =
  match t.family with
  | Matern when t.nu <> 0.5 ->
    let plan = Bessel.k_plan ~nu:t.nu in
    {
      cov = t;
      scale = t.sigma2 *. (Float.exp2 (1. -. t.nu) /. Gamma.gamma t.nu);
      plan = Some plan;
      fit = (if t.nu <= fit_nu_max then fit_coeffs plan else [||]);
      nu_half = t.nu -. 0.5;
    }
  | Sqexp | Matern | Powexp | Spherical ->
    { cov = t; scale = nan; plan = None; fit = [||]; nu_half = nan }

(* A Matérn entry is x^p times a factor decaying like e^{−x}; at huge x
   that is ∞·0 = NaN, and the covariance there is 0.  A NaN scale (σ²)
   is not underflow and stays NaN. *)
let underflow_to_zero k v = if Float.is_nan v && not (Float.is_nan k.scale) then 0. else v

let kernel_eval k h =
  assert (h >= 0.);
  let t = k.cov in
  match t.family with
  | Sqexp -> t.sigma2 *. exp (-.(h *. h) /. t.beta)
  | Powexp -> t.sigma2 *. exp (-.Float.pow (h /. t.beta) t.nu)
  | Spherical ->
    if h >= t.beta then 0.
    else begin
      let r = h /. t.beta in
      t.sigma2 *. (1. -. (1.5 *. r) +. (0.5 *. r *. r *. r))
    end
  | Matern -> (
    if h = 0. then t.sigma2
    else
      let x = h /. t.beta in
      match k.plan with
      | None ->
        (* ν = ½: the exponential, and the paper's "rough field". *)
        t.sigma2 *. exp (-.x)
      | Some plan ->
        (* x = 2 is also where [Bessel.k_eval] switches from Temme to CF2. *)
        if x >= 2. && Array.length k.fit > 0 then
          underflow_to_zero k
            (k.scale *. Float.pow x k.nu_half *. exp (-.x) *. fit_eval k.fit x)
        else underflow_to_zero k (k.scale *. Float.pow x t.nu *. Bessel.k_eval plan x))

let eval t =
  let k = kernel t in
  fun h -> kernel_eval k h

let kernel_element k locs i j =
  if i = j then k.cov.sigma2 +. k.cov.nugget
  else kernel_eval k (Locations.distance locs i j)

let element t locs =
  let k = kernel t in
  fun i j -> kernel_element k locs i j

(* Each stored tile is written through its column-major buffer (DESIGN.md
   §12's [-opaque] rule).  A diagonal tile evaluates its lower triangle
   and mirrors it: [Locations.distance] is exactly symmetric, so the upper
   half is bitwise what evaluating it would give. *)
let build_tiled t locs ~nb =
  let k = kernel t in
  let a = Tiled.create ~n:(Locations.count locs) ~nb in
  for ti = 0 to Tiled.nt a - 1 do
    for tj = 0 to ti do
      let m = Tiled.tile a ti tj in
      let buf : Mat.buf = Mat.data m in
      let rows = Mat.rows m in
      let ri = ti * nb and cj = tj * nb in
      for jj = 0 to Mat.cols m - 1 do
        if ti = tj then
          for ii = jj to rows - 1 do
            let v = kernel_element k locs (ri + ii) (cj + jj) in
            Bigarray.Array1.unsafe_set buf (ii + (jj * rows)) v;
            Bigarray.Array1.unsafe_set buf (jj + (ii * rows)) v
          done
        else
          for ii = 0 to rows - 1 do
            Bigarray.Array1.unsafe_set buf (ii + (jj * rows))
              (kernel_element k locs (ri + ii) (cj + jj))
          done
      done
    done
  done;
  a

(* A test reference: the whole matrix as one diagonal tile. *)
let build_dense t locs =
  Tiled.to_dense (build_tiled t locs ~nb:(Stdlib.max 1 (Locations.count locs)))

let theta t =
  match t.family with
  | Sqexp | Spherical -> [| t.sigma2; t.beta |]
  | Matern | Powexp -> [| t.sigma2; t.beta; t.nu |]

let with_theta t v =
  let t =
    match (t.family, v) with
    | (Sqexp | Spherical), [| sigma2; beta |] -> { t with sigma2; beta }
    | (Matern | Powexp), [| sigma2; beta; nu |] -> { t with sigma2; beta; nu }
    | _ -> invalid_arg "Covariance.with_theta: wrong parameter count"
  in
  check t.family ~sigma2:t.sigma2 ~beta:t.beta ~nu:t.nu;
  t
