module Gamma = Geomix_specfun.Gamma
module Bessel = Geomix_specfun.Bessel
module Mat = Geomix_linalg.Mat
module Tiled = Geomix_tile.Tiled

type family = Sqexp | Matern | Powexp | Spherical

type t = { family : family; sigma2 : float; beta : float; nu : float; nugget : float }

let default_nugget = 1e-6

let sqexp ?(nugget = default_nugget) ~sigma2 ~beta () =
  assert (sigma2 > 0. && beta > 0.);
  { family = Sqexp; sigma2; beta; nu = nan; nugget }

let matern ?(nugget = default_nugget) ~sigma2 ~beta ~nu () =
  assert (sigma2 > 0. && beta > 0. && nu > 0.);
  { family = Matern; sigma2; beta; nu; nugget }

let powexp ?(nugget = default_nugget) ~sigma2 ~beta ~power () =
  assert (sigma2 > 0. && beta > 0. && power > 0. && power <= 2.);
  { family = Powexp; sigma2; beta; nu = power; nugget }

let spherical ?(nugget = default_nugget) ~sigma2 ~beta () =
  assert (sigma2 > 0. && beta > 0.);
  { family = Spherical; sigma2; beta; nu = nan; nugget }

(* The per-θ kernel: the covariance with everything that depends on θ
   alone computed once.  For a Matérn with ν ≠ ½ that is the normaliser
   2^{1−ν}/Γ(ν) and the K_ν plan; [plan = None] means no Bessel call. *)
type kernel = { cov : t; norm : float; plan : Bessel.k_plan option }

let kernel t =
  match t.family with
  | Matern when t.nu <> 0.5 ->
    {
      cov = t;
      norm = Float.exp2 (1. -. t.nu) /. Gamma.gamma t.nu;
      plan = Some (Bessel.k_plan ~nu:t.nu);
    }
  | Sqexp | Matern | Powexp | Spherical -> { cov = t; norm = nan; plan = None }

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
        let v = t.sigma2 *. k.norm *. Float.pow x t.nu *. Bessel.k_eval plan x in
        (* K_ν underflows for large x: the covariance is then 0. *)
        if Float.is_nan v then 0. else v)

let eval t =
  let k = kernel t in
  fun h -> kernel_eval k h

let kernel_element k locs i j =
  if i = j then k.cov.sigma2 +. k.cov.nugget
  else kernel_eval k (Locations.distance locs i j)

let element t locs =
  let k = kernel t in
  fun i j -> kernel_element k locs i j

let build_dense t locs =
  let k = kernel t in
  let n = Locations.count locs in
  let m = Mat.create ~rows:n ~cols:n in
  let buf = Mat.data m in
  for j = 0 to n - 1 do
    Bigarray.Array1.unsafe_set buf (j + (j * n)) (kernel_element k locs j j);
    for i = j + 1 to n - 1 do
      let v = kernel_element k locs i j in
      Bigarray.Array1.unsafe_set buf (i + (j * n)) v;
      Bigarray.Array1.unsafe_set buf (j + (i * n)) v
    done
  done;
  m

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

let theta t =
  match t.family with
  | Sqexp | Spherical -> [| t.sigma2; t.beta |]
  | Matern | Powexp -> [| t.sigma2; t.beta; t.nu |]

let with_theta t v =
  match (t.family, v) with
  | (Sqexp | Spherical), [| sigma2; beta |] -> { t with sigma2; beta }
  | (Matern | Powexp), [| sigma2; beta; nu |] -> { t with sigma2; beta; nu }
  | _ -> invalid_arg "Covariance.with_theta: wrong parameter count"
