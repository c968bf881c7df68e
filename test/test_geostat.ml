module Locations = Geomix_geostat.Locations
module Covariance = Geomix_geostat.Covariance
module Field = Geomix_geostat.Field
module Prediction = Geomix_geostat.Prediction
module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Stats = Geomix_util.Stats
module Rng = Geomix_util.Rng
module Gamma = Geomix_specfun.Gamma
module Bessel = Geomix_specfun.Bessel
module Tiled = Geomix_tile.Tiled
module Precision_map = Geomix_core.Precision_map
module Mp_cholesky = Geomix_core.Mp_cholesky
module Likelihood = Geomix_geostat.Likelihood

let rng () = Rng.create ~seed:31

let test_locations_in_domain () =
  let r = rng () in
  List.iter
    (fun (locs, dims) ->
      Alcotest.(check int) "dim" dims (Locations.dim locs);
      for i = 0 to Locations.count locs - 1 do
        Array.iter
          (fun c -> Alcotest.(check bool) "in unit cube" true (c >= 0. && c <= 1.))
          (Locations.coord locs i)
      done)
    [
      (Locations.jittered_grid_2d ~rng:r ~n:100, 2);
      (Locations.jittered_grid_3d ~rng:r ~n:64, 3);
      (Locations.uniform_2d ~rng:r ~n:50, 2);
    ]

let test_locations_count () =
  let r = rng () in
  List.iter
    (fun n ->
      Alcotest.(check int) "exact count" n
        (Locations.count (Locations.jittered_grid_2d ~rng:r ~n)))
    [ 1; 10; 100; 123 ]

let test_jitter_separation () =
  (* Jittered-grid sites keep a minimum separation (the 80% inner cell). *)
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:100 in
  let min_d = ref infinity in
  for i = 0 to 99 do
    for j = i + 1 to 99 do
      min_d := Float.min !min_d (Locations.distance locs i j)
    done
  done;
  Alcotest.(check bool) (Printf.sprintf "min dist %g > 0.01" !min_d) true (!min_d > 0.01)

let test_distance () =
  let r = rng () in
  let locs = Locations.uniform_2d ~rng:r ~n:5 in
  Alcotest.(check (float 0.)) "self distance" 0. (Locations.distance locs 2 2);
  Alcotest.(check (float 1e-12)) "symmetric" (Locations.distance locs 0 3)
    (Locations.distance locs 3 0)

let test_morton_sort_improves_locality () =
  let r = rng () in
  let locs = Locations.uniform_2d ~rng:r ~n:400 in
  let sorted = Locations.morton_sort locs in
  Alcotest.(check int) "count preserved" 400 (Locations.count sorted);
  (* Average distance between index-neighbours must shrink. *)
  let avg_gap l =
    let acc = ref 0. in
    for i = 0 to 398 do
      acc := !acc +. Locations.distance l i (i + 1)
    done;
    !acc /. 399.
  in
  Alcotest.(check bool) "locality improved" true (avg_gap sorted < 0.5 *. avg_gap locs)

let test_sqexp_properties () =
  let c = Covariance.sqexp ~sigma2:1.5 ~beta:0.2 () in
  Alcotest.(check (float 1e-12)) "C(0)=σ²" 1.5 (Covariance.eval c 0.);
  Alcotest.(check bool) "decreasing" true
    (Covariance.eval c 0.1 > Covariance.eval c 0.2);
  Alcotest.(check bool) "vanishing" true (Covariance.eval c 10. < 1e-10)

let test_matern_nu_half_is_exponential () =
  let c = Covariance.matern ~sigma2:2. ~beta:0.3 ~nu:0.5 () in
  List.iter
    (fun h ->
      Alcotest.(check (float 1e-10)) "exp form" (2. *. exp (-.h /. 0.3)) (Covariance.eval c h))
    [ 0.05; 0.1; 0.5; 1. ]

let test_matern_special_case_consistency () =
  (* The Bessel branch at ν=0.5±ε must agree with the closed form. *)
  let h = 0.23 in
  let c_exact = Covariance.matern ~sigma2:1. ~beta:0.1 ~nu:0.5 () in
  let c_eps = Covariance.matern ~sigma2:1. ~beta:0.1 ~nu:0.5000001 () in
  Alcotest.(check bool) "branch continuity" true
    (Float.abs (Covariance.eval c_exact h -. Covariance.eval c_eps h) < 1e-5)

let test_matern_smoothness_effect () =
  (* Higher ν ⇒ flatter near the origin (smoother field). *)
  let rough = Covariance.matern ~sigma2:1. ~beta:0.2 ~nu:0.5 () in
  let smooth = Covariance.matern ~sigma2:1. ~beta:0.2 ~nu:1.5 () in
  let h = 0.02 in
  Alcotest.(check bool) "smooth retains more correlation at tiny h" true
    (Covariance.eval smooth h > Covariance.eval rough h)

let test_powexp_properties () =
  let c = Covariance.powexp ~sigma2:1. ~beta:0.2 ~power:1. () in
  (* power = 1 is the exponential kernel. *)
  List.iter
    (fun h ->
      Alcotest.(check (float 1e-12)) "exp form" (exp (-.h /. 0.2)) (Covariance.eval c h))
    [ 0.05; 0.2; 0.7 ];
  (* power = 2 coincides with sqexp at range β². *)
  let p2 = Covariance.powexp ~sigma2:1.5 ~beta:0.3 ~power:2. () in
  let sq = Covariance.sqexp ~sigma2:1.5 ~beta:0.09 () in
  List.iter
    (fun h ->
      Alcotest.(check (float 1e-12)) "matches sqexp" (Covariance.eval sq h)
        (Covariance.eval p2 h))
    [ 0.05; 0.2; 0.7 ]

let test_spherical_properties () =
  let c = Covariance.spherical ~sigma2:2. ~beta:0.5 () in
  Alcotest.(check (float 1e-12)) "C(0)=σ²" 2. (Covariance.eval c 0.);
  Alcotest.(check (float 0.)) "compact support" 0. (Covariance.eval c 0.5);
  Alcotest.(check (float 0.)) "beyond range" 0. (Covariance.eval c 1.2);
  Alcotest.(check bool) "decreasing inside" true
    (Covariance.eval c 0.1 > Covariance.eval c 0.3);
  (* Continuity at the range. *)
  Alcotest.(check bool) "continuous at beta" true (Covariance.eval c 0.4999 < 1e-3)

let test_new_families_spd () =
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:64 in
  List.iter
    (fun cov -> Blas.potrf_lower (Covariance.build_dense cov locs))
    [
      Covariance.powexp ~sigma2:1. ~beta:0.2 ~power:1.5 ();
      Covariance.spherical ~sigma2:1. ~beta:0.4 ();
    ]

let test_new_families_theta () =
  let p = Covariance.powexp ~sigma2:1. ~beta:0.2 ~power:1.5 () in
  Alcotest.(check (array (float 0.))) "powexp theta" [| 1.; 0.2; 1.5 |] (Covariance.theta p);
  let s = Covariance.spherical ~sigma2:1. ~beta:0.4 () in
  Alcotest.(check (array (float 0.))) "spherical theta" [| 1.; 0.4 |] (Covariance.theta s);
  let s' = Covariance.with_theta s [| 2.; 0.3 |] in
  Alcotest.(check (float 0.)) "updated" 2. (Covariance.eval s' 0.)

let test_element_nugget () =
  let r = rng () in
  let locs = Locations.uniform_2d ~rng:r ~n:4 in
  let c = Covariance.sqexp ~nugget:1e-3 ~sigma2:1. ~beta:0.1 () in
  Alcotest.(check (float 1e-15)) "diagonal includes nugget" (1. +. 1e-3)
    (Covariance.element c locs 2 2)

let test_build_dense_spd () =
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:64 in
  List.iter
    (fun cov ->
      let m = Covariance.build_dense cov locs in
      (* Symmetric... *)
      Alcotest.(check (float 0.)) "symmetric" 0.
        (Mat.rel_diff (Mat.transpose m) ~reference:m);
      (* ...and positive definite: Cholesky succeeds. *)
      Blas.potrf_lower m)
    [
      Covariance.sqexp ~sigma2:1. ~beta:0.1 ();
      Covariance.matern ~sigma2:1. ~beta:0.1 ~nu:0.5 ();
      Covariance.matern ~sigma2:1. ~beta:0.3 ~nu:1. ();
    ]

(* Both builders and [element], fully and partially applied, agree bit
   for bit for every family, on an even (48 = 3·16) and a ragged
   (50 = 3·16 + 2) tiling.  [Tiled.to_dense] copies each diagonal tile
   whole, so the upper halves the tiled builder mirrors are compared too:
   the precision map's tile norms read them. *)
let test_build_tiled_matches_dense () =
  let bits = Int64.bits_of_float in
  let covs =
    List.concat_map
      (fun nu ->
        [
          ( Printf.sprintf "matern nu=%g" nu,
            Covariance.matern ~sigma2:1.3 ~beta:0.2 ~nu () );
          ( Printf.sprintf "powexp nu=%g" nu,
            Covariance.powexp ~sigma2:1.3 ~beta:0.2 ~power:nu () );
        ])
      [ 0.4; 0.5; 0.8; 1.0; 1.5 ]
    @ [
        ("sqexp", Covariance.sqexp ~sigma2:0.7 ~beta:0.05 ());
        ("spherical", Covariance.spherical ~sigma2:0.7 ~beta:0.3 ());
      ]
  in
  List.iter
    (fun n ->
      let locs = Locations.jittered_grid_2d ~rng:(rng ()) ~n in
      List.iter
        (fun (name, cov) ->
          let d = Covariance.build_dense cov locs in
          let t = Geomix_tile.Tiled.to_dense (Covariance.build_tiled cov locs ~nb:16) in
          let el = Covariance.element cov locs in
          let mismatches = ref [] in
          for j = 0 to n - 1 do
            for i = 0 to n - 1 do
              let v = bits (Covariance.element cov locs i j) in
              if
                bits (Mat.get d i j) <> v
                || bits (Mat.get t i j) <> v
                || bits (el i j) <> v
              then mismatches := (i, j) :: !mismatches
            done
          done;
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s n=%d: entries differing between builders" name n)
            [] !mismatches)
        covs)
    [ 48; 50 ]

(* {2 The Matérn contract}

   The pinned reference is σ²·(2^{1−ν}/Γ(ν))·x^ν·K_ν(x) with x = h/β and
   K_ν from Steed's [Bessel.bessel_k]: the covariance's own expression
   before the Chebyshev fit.  Entries with x < 2 (Temme) and entries at
   ν above the fit's cap must equal it bit for bit; entries with x ≥ 2 at
   ν ≤ the cap come from the fit and must be within [band] relative of it
   wherever the reference is a normal float. *)

let band = 1e-13
let fit_nu_cap = 4.

let matern_reference ~sigma2 ~beta ~nu h =
  if h = 0. then sigma2
  else
    let x = h /. beta in
    sigma2 *. (Float.exp2 (1. -. nu) /. Gamma.gamma nu) *. Float.pow x nu *. Bessel.bessel_k ~nu x

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let within_contract ~sigma2 ~beta ~nu h v =
  let r = matern_reference ~sigma2 ~beta ~nu h in
  if h /. beta < 2. || nu > fit_nu_cap then same_bits v r
  else Float.abs r < Float.min_float || Float.abs (v -. r) <= band *. Float.abs r

(* ν from 0.01 to the cap (integer, half-integer and fractional) plus two
   orders above it; x log-spaced over [1e-3, 2) and [2, 700] with both
   neighbours of 2.  β = 1/8 makes h = x/8 and h/β = x exact. *)
let test_matern_error_band () =
  let sigma2 = 1.3 and beta = 0.125 in
  let nus =
    [ 0.01; 0.05; 0.1; 0.25; 0.4; 0.63; 0.99; 1.; 1.01; 1.5; 2.; 2.2; 2.5; 3.; 3.5; 3.99; 4.;
      4.5; 6. ]
  in
  let xs =
    [ Float.pred 2.; 2.; Float.succ 2.; 700. ]
    @ List.init 100 (fun i -> 1e-3 *. Float.pow 2e3 (float_of_int i /. 100.))
    @ List.init 400 (fun i -> 2. *. Float.pow 350. (float_of_int i /. 400.))
  in
  let misses =
    List.concat_map
      (fun nu ->
        let c = Covariance.eval (Covariance.matern ~sigma2 ~beta ~nu ()) in
        List.filter_map
          (fun x ->
            let h = x *. beta in
            if within_contract ~sigma2 ~beta ~nu h (c h) then None else Some (nu, x))
          xs)
      nus
  in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "(nu, x) where a Matérn entry breaks its contract" [] misses

let prop_matern_error_band =
  QCheck.Test.make ~name:"Matérn entries at x >= 2 within 1e-13 of the reference" ~count:500
    QCheck.(pair (float_range 0.01 fit_nu_cap) (float_range 2. 700.))
    (fun (nu, x) ->
      let beta = 0.125 in
      let h = x *. beta in
      let c = Covariance.matern ~sigma2:1. ~beta ~nu () in
      within_contract ~sigma2:1. ~beta ~nu h (Covariance.eval c h))

let test_matern_reference_bits () =
  (* Reference bit patterns of a Matérn covariance with ν off the ½ fast
     path at x < 2, where the contract is bitwise; the entries at x ≥ 2
     come from the fit and are held to the band. *)
  let sigma2 = 1.3 and beta = 0.1 and nu = 0.63 in
  let c = Covariance.matern ~sigma2 ~beta ~nu () in
  List.iter
    (fun (h, b) ->
      Alcotest.(check int64) (Printf.sprintf "matern C(%g) bits" h) b
        (Int64.bits_of_float (Covariance.eval c h)))
    [ (0., 0x3ff4cccccccccccdL); (0.01, 0x3ff3a901ea61913bL); (0.15, 0x3fd720ad29c2c373L) ];
  List.iter
    (fun h ->
      Alcotest.(check bool) (Printf.sprintf "matern C(%g) within the band" h) true
        (within_contract ~sigma2 ~beta ~nu h (Covariance.eval c h)))
    [ 0.2; 0.7; 3. ];
  (* And the MD5 of six tiled 50 × 50 Matérn matrices' bits, each entry
     also held to its contract. *)
  let locs = Locations.jittered_grid_2d ~rng:(rng ()) ~n:50 in
  let b = Buffer.create (8 * 6 * 2500) in
  let misses = ref [] in
  List.iter
    (fun nu ->
      let sigma2 = 1.3 and beta = 0.2 in
      let cov = Covariance.matern ~sigma2 ~beta ~nu () in
      let d = Tiled.to_dense (Covariance.build_tiled cov locs ~nb:16) in
      for j = 0 to 49 do
        for i = 0 to 49 do
          let v = Mat.get d i j in
          Buffer.add_int64_le b (Int64.bits_of_float v);
          let ok =
            if i = j then same_bits v (sigma2 +. cov.Covariance.nugget)
            else within_contract ~sigma2 ~beta ~nu (Locations.distance locs i j) v
          in
          if not ok then misses := (nu, i, j) :: !misses
        done
      done)
    [ 0.4; 0.63; 0.8; 1.0; 1.5; 2.2 ];
  Alcotest.(check (list (triple (float 0.) int int))) "entries breaking the contract" []
    !misses;
  Alcotest.(check string) "matrix digest" "919feac5831dcfab9fb87c3cd30b6e73"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The fit must not move what the paper's method decides: for 40 θ drawn
   like the benchmark's (log-uniform σ² ∈ [0.5, 2], β ∈ [0.05, 0.2],
   ν ∈ [0.4, 0.8]) the precision map of [build_tiled] equals the map of
   the same matrix built from the Steed reference, and the mixed-precision
   log-likelihoods agree to 1e-10 relative. *)
let test_fit_keeps_precision_maps () =
  let n = 256 and nb = 32 and u_req = 1e-6 in
  let r = Rng.create ~seed:5 in
  let locs = Locations.morton_sort (Locations.jittered_grid_2d ~rng:r ~n) in
  let z = Field.synthesize ~rng:r ~cov:(Covariance.matern ~sigma2:1. ~beta:0.1 ~nu:0.5 ()) locs in
  let loglik pmap a =
    Mp_cholesky.factorize ~pmap a;
    let y = Mp_cholesky.solve_lower a z in
    let quad_form = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. y in
    (Likelihood.assemble ~n ~log_det:(Mp_cholesky.log_det a) ~quad_form
       ~precision_fractions:[] ())
      .Likelihood.loglik
  in
  let log_uniform lo hi = exp (log lo +. (Rng.float r *. (log hi -. log lo))) in
  for k = 1 to 40 do
    let sigma2 = log_uniform 0.5 2. in
    let beta = log_uniform 0.05 0.2 in
    let nu = log_uniform 0.4 0.8 in
    let cov = Covariance.matern ~sigma2 ~beta ~nu () in
    let a = Covariance.build_tiled cov locs ~nb in
    let reference =
      Tiled.init ~n ~nb (fun i j ->
        if i = j then sigma2 +. cov.Covariance.nugget
        else matern_reference ~sigma2 ~beta ~nu (Locations.distance locs i j))
    in
    let pa = Precision_map.of_tiled ~u_req a in
    let pr = Precision_map.of_tiled ~u_req reference in
    for i = 0 to Precision_map.nt pa - 1 do
      for j = 0 to i do
        if Precision_map.get pa i j <> Precision_map.get pr i j then
          Alcotest.failf "theta %d (%g, %g, %g): tile (%d, %d) precision differs" k sigma2
            beta nu i j
      done
    done;
    let la = loglik pa a and lr = loglik pr reference in
    let rel = Float.abs (la -. lr) /. Float.abs lr in
    if not (rel <= 1e-10) then
      Alcotest.failf "theta %d (%g, %g, %g): loglik %.17g vs %.17g (rel %g)" k sigma2 beta nu
        la lr rel
  done

let test_theta_roundtrip () =
  let c = Covariance.matern ~sigma2:1.2 ~beta:0.4 ~nu:0.9 () in
  let c' = Covariance.with_theta c [| 0.8; 0.2; 1.1 |] in
  Alcotest.(check (array (float 0.))) "updated" [| 0.8; 0.2; 1.1 |] (Covariance.theta c');
  Alcotest.check_raises "arity enforced"
    (Invalid_argument "Covariance.with_theta: wrong parameter count") (fun () ->
    ignore (Covariance.with_theta c [| 1. |]));
  (* The constructors' domain checks hold for a new parameter vector too. *)
  let m = Covariance.matern ~sigma2:1. ~beta:0.3 ~nu:0.6 () in
  List.iter
    (fun (theta, what) ->
      Alcotest.check_raises
        (Printf.sprintf "with_theta rejects %s" what)
        (Invalid_argument ("Covariance: " ^ what))
        (fun () -> ignore (Covariance.with_theta m theta)))
    [
      ([| 1.; -0.1; 0.6 |], "beta must be > 0");
      ([| 1.; 0.3; 0. |], "nu must be > 0");
      ([| -1.; 0.3; 0.6 |], "sigma2 must be > 0");
      ([| nan; 0.3; 0.6 |], "sigma2 must be > 0");
    ];
  let p = Covariance.powexp ~sigma2:1. ~beta:0.3 ~power:1.5 () in
  Alcotest.check_raises "with_theta rejects power > 2"
    (Invalid_argument "Covariance: power must be in (0, 2]") (fun () ->
    ignore (Covariance.with_theta p [| 1.; 0.3; 2.5 |]));
  (* Record literals skip the checks; a NaN σ² must still not read as a
     zero covariance, while a genuinely underflowed entry does. *)
  let nan_sigma = { m with Covariance.sigma2 = nan } in
  List.iter
    (fun h ->
      Alcotest.(check bool) (Printf.sprintf "NaN sigma2 stays NaN at h = %g" h) true
        (Float.is_nan (Covariance.eval nan_sigma h)))
    [ 0.05; 1.; 1e300 ];
  Alcotest.(check (float 0.)) "underflow at huge h is 0" 0. (Covariance.eval m 1e300)

let test_field_variance () =
  (* The empirical variance of a synthesised field matches σ² roughly. *)
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:400 in
  let cov = Covariance.sqexp ~sigma2:1. ~beta:0.02 () in
  let zs = Field.synthesize_many ~rng:r ~cov ~replicas:8 locs in
  let all = Array.concat (Array.to_list zs) in
  let v = Stats.variance all in
  Alcotest.(check bool) (Printf.sprintf "variance %g ≈ 1" v) true (v > 0.7 && v < 1.3)

let test_field_replicas_differ () =
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:32 in
  let cov = Covariance.sqexp ~sigma2:1. ~beta:0.1 () in
  let zs = Field.synthesize_many ~rng:r ~cov ~replicas:2 locs in
  Alcotest.(check bool) "independent replicas" true (zs.(0) <> zs.(1))

let test_field_correlation_structure () =
  (* Strongly correlated field: neighbouring values nearly equal. *)
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:100 in
  let strong = Field.synthesize ~rng:r ~cov:(Covariance.sqexp ~sigma2:1. ~beta:2. ()) locs in
  (* Pick the closest pair. *)
  let bi = ref 0 and bj = ref 1 and bd = ref infinity in
  for i = 0 to 99 do
    for j = i + 1 to 99 do
      let d = Locations.distance locs i j in
      if d < !bd then begin
        bd := d;
        bi := i;
        bj := j
      end
    done
  done;
  Alcotest.(check bool) "close sites close values" true
    (Float.abs (strong.(!bi) -. strong.(!bj)) < 0.2)

let test_prediction_interpolates () =
  (* Kriging at an observed site with the true covariance returns almost
     the observed value (tiny nugget). *)
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:100 in
  let cov = Covariance.sqexp ~sigma2:1. ~beta:0.5 () in
  let factor = Field.factor cov locs in
  let z = Field.draw r factor in
  let p = Prediction.predict ~cov ~factor ~obs_locs:locs ~z ~new_locs:locs in
  let err = Prediction.mse ~predicted:p.Prediction.mean ~truth:z in
  Alcotest.(check bool) (Printf.sprintf "mse %g tiny" err) true (err < 1e-4);
  Array.iter
    (fun v -> Alcotest.(check bool) "variance ≈ 0 at data" true (v < 1e-2))
    p.Prediction.variance

let test_prediction_variance_grows_far_away () =
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:64 in
  let cov = Covariance.sqexp ~sigma2:1. ~beta:0.01 () in
  let z = Field.synthesize ~rng:r ~cov locs in
  (* A site far outside the unit square is unpredictable: σ*² → σ². *)
  let far = Locations.uniform_2d ~rng:r ~n:1 in
  (* shift it out of the domain by predicting with scaled coords *)
  let p = Prediction.predict ~cov ~factor:(Field.factor cov locs) ~obs_locs:locs ~z ~new_locs:far in
  Alcotest.(check bool) "variance below prior" true (p.Prediction.variance.(0) <= 1. +. 1e-6)

(* The FP64 factor pin: [Field], [Likelihood.Exact] and [Prediction]
   against an inline dense reference ([build_dense], [Blas.potrf_lower], a
   column-order draw and [log_det_from_chol]).  Fields, replicas and
   log-determinants match bitwise at every n.  The quadratic form and the
   kriging mean and variance match bitwise up to one 64-wide tile; beyond
   it the solves may sum one tile at a time, so they are held within
   [pin_ulps] units of roundoff of their scale: the value itself for the
   quadratic form, Σ|k_i·α_i| for a mean, C(0) for a variance. *)

let pin_ulps = 16.

let pin_sites n =
  Locations.morton_sort (Locations.jittered_grid_2d ~rng:(Rng.create ~seed:7) ~n)

let dense_factor cov locs =
  let l = Covariance.build_dense cov locs in
  Blas.potrf_lower l;
  l

let dense_draw rng l =
  let n = Mat.rows l in
  let e = Rng.gaussian_vector rng n in
  let z = Array.make n 0. in
  for j = 0 to n - 1 do
    for i = j to n - 1 do
      z.(i) <- z.(i) +. (Mat.get l i j *. e.(j))
    done
  done;
  z

let cross_distance a i b j =
  let ca = Locations.coord a i and cb = Locations.coord b j in
  let acc = ref 0. in
  for d = 0 to Array.length ca - 1 do
    let x = ca.(d) -. cb.(d) in
    acc := !acc +. (x *. x)
  done;
  sqrt !acc

let sum_squares = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.

(* Per new site: (mean, its scale Σ|k_i·α_i|, variance). *)
let dense_kriging cov l ~obs_locs ~z ~new_locs =
  let c = Covariance.eval cov in
  let c0 = c 0. +. cov.Covariance.nugget in
  let alpha = Blas.trsv_lower_trans ~l (Blas.trsv_lower ~l z) in
  Array.init (Locations.count new_locs) (fun j ->
    let k = Array.init (Locations.count obs_locs) (fun i -> c (cross_distance obs_locs i new_locs j)) in
    let mu = ref 0. and scale = ref 0. in
    Array.iteri
      (fun i ki ->
        mu := !mu +. (ki *. alpha.(i));
        scale := !scale +. Float.abs (ki *. alpha.(i)))
      k;
    (!mu, !scale, Float.max 0. (c0 -. sum_squares (Blas.trsv_lower ~l k))))

let check_bits what want got =
  if not (same_bits want got) then
    Alcotest.failf "%s: %h, dense reference %h" what got want

let check_pinned ~exact what ~scale want got =
  if exact then check_bits what want got
  else if Float.abs (got -. want) > pin_ulps *. epsilon_float *. scale then
    Alcotest.failf "%s: %h, dense reference %h (scale %g)" what got want scale

let test_fp64_factor_pin n () =
  let exact = n <= 64 in
  let locs = pin_sites n in
  let new_locs = Locations.uniform_2d ~rng:(Rng.create ~seed:11) ~n:8 in
  List.iter
    (fun nu ->
      let what s = Printf.sprintf "n=%d ν=%g %s" n nu s in
      let cov = Covariance.matern ~nugget:1e-4 ~sigma2:1. ~beta:0.1 ~nu () in
      let l = dense_factor cov locs in
      let z = Field.synthesize ~rng:(Rng.create ~seed:n) ~cov locs in
      Array.iteri
        (fun i v -> check_bits (what (Printf.sprintf "z.(%d)" i)) v z.(i))
        (dense_draw (Rng.create ~seed:n) l);
      let zs = Field.synthesize_many ~rng:(Rng.create ~seed:3) ~cov ~replicas:3 locs in
      let rng = Rng.create ~seed:3 in
      Array.iteri
        (fun r zr ->
          Array.iteri
            (fun i v -> check_bits (what (Printf.sprintf "replica %d z.(%d)" r i)) v zr.(i))
            (dense_draw rng l))
        zs;
      let e = Likelihood.evaluate Likelihood.Exact ~cov ~locs ~z in
      check_bits (what "log_det") (Blas.log_det_from_chol l) e.Likelihood.log_det;
      let q = sum_squares (Blas.trsv_lower ~l z) in
      check_pinned ~exact (what "quad_form") ~scale:q q e.Likelihood.quad_form;
      let p = Prediction.predict ~cov ~factor:(Field.factor cov locs) ~obs_locs:locs ~z ~new_locs in
      let c0 = Covariance.eval cov 0. +. cov.Covariance.nugget in
      Array.iteri
        (fun j (mean, scale, variance) ->
          check_pinned ~exact (what (Printf.sprintf "mean.(%d)" j)) ~scale mean
            p.Prediction.mean.(j);
          check_pinned ~exact (what (Printf.sprintf "variance.(%d)" j)) ~scale:c0 variance
            p.Prediction.variance.(j))
        (dense_kriging cov l ~obs_locs:locs ~z ~new_locs))
    [ 0.5; 1.3 ]

(* An indefinite Σ (squared exponential, no nugget) whose dense
   factorization fails past the first 64-wide tile: every FP64 path
   reports the same global pivot, and the robust evaluation reports
   [Indefinite] instead of raising. *)
let test_fp64_factor_pin_indefinite () =
  let n = 100 in
  let locs = pin_sites n in
  let cov = Covariance.sqexp ~nugget:0. ~sigma2:1. ~beta:0.5 () in
  let pivot =
    match dense_factor cov locs with
    | _ -> Alcotest.fail "the dense reference factorized"
    | exception Blas.Not_positive_definite p -> p
  in
  Alcotest.(check bool) (Printf.sprintf "pivot %d past the first tile" pivot) true (pivot >= 64);
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted an indefinite Σ" what
    | exception Blas.Not_positive_definite p -> Alcotest.(check int) what pivot p
  in
  raises "Field.synthesize" (fun () -> ignore (Field.synthesize ~rng:(rng ()) ~cov locs));
  let z = Array.make n 1. in
  raises "Likelihood.evaluate Exact" (fun () ->
      ignore (Likelihood.evaluate Likelihood.Exact ~cov ~locs ~z));
  let e = Likelihood.evaluate_robust Likelihood.Exact ~cov ~locs ~z in
  Alcotest.(check bool) "evaluate_robust reports Indefinite" true
    (e.Likelihood.status = Likelihood.Indefinite)

let () =
  Alcotest.run "geostat"
    [
      ( "locations",
        [
          Alcotest.test_case "domain" `Quick test_locations_in_domain;
          Alcotest.test_case "count" `Quick test_locations_count;
          Alcotest.test_case "separation" `Quick test_jitter_separation;
          Alcotest.test_case "distance" `Quick test_distance;
          Alcotest.test_case "morton locality" `Quick test_morton_sort_improves_locality;
        ] );
      ( "covariance",
        [
          Alcotest.test_case "sqexp" `Quick test_sqexp_properties;
          Alcotest.test_case "matern ν=1/2 exponential" `Quick test_matern_nu_half_is_exponential;
          Alcotest.test_case "matern branch continuity" `Quick test_matern_special_case_consistency;
          Alcotest.test_case "smoothness effect" `Quick test_matern_smoothness_effect;
          Alcotest.test_case "powexp" `Quick test_powexp_properties;
          Alcotest.test_case "spherical" `Quick test_spherical_properties;
          Alcotest.test_case "new families SPD" `Quick test_new_families_spd;
          Alcotest.test_case "new families theta" `Quick test_new_families_theta;
          Alcotest.test_case "nugget" `Quick test_element_nugget;
          Alcotest.test_case "dense SPD" `Quick test_build_dense_spd;
          Alcotest.test_case "tiled = dense" `Quick test_build_tiled_matches_dense;
          Alcotest.test_case "matern reference bits" `Quick test_matern_reference_bits;
          Alcotest.test_case "theta roundtrip" `Quick test_theta_roundtrip;
          Alcotest.test_case "matern error band" `Quick test_matern_error_band;
          Alcotest.test_case "fit keeps precision maps" `Quick test_fit_keeps_precision_maps;
          QCheck_alcotest.to_alcotest prop_matern_error_band;
        ] );
      ( "field",
        [
          Alcotest.test_case "variance" `Quick test_field_variance;
          Alcotest.test_case "replicas differ" `Quick test_field_replicas_differ;
          Alcotest.test_case "correlation structure" `Quick test_field_correlation_structure;
        ] );
      ( "prediction",
        [
          Alcotest.test_case "interpolates" `Quick test_prediction_interpolates;
          Alcotest.test_case "variance bounded" `Quick test_prediction_variance_grows_far_away;
        ] );
      ( "fp64 pin",
        List.map
          (fun n -> Alcotest.test_case (Printf.sprintf "n=%d" n) `Quick (test_fp64_factor_pin n))
          [ 20; 64; 65; 100; 384 ]
        @ [ Alcotest.test_case "indefinite" `Quick test_fp64_factor_pin_indefinite ] );
    ]
