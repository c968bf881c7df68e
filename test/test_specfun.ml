module Gamma = Geomix_specfun.Gamma
module Bessel = Geomix_specfun.Bessel

let releq ?(tol = 1e-10) a b = Float.abs (a -. b) <= tol *. (1. +. Float.abs b)

let check name tol expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.15g got %.15g" name expected actual)
    true (releq ~tol expected actual)

let test_gamma_integers () =
  check "Γ(1)" 1e-12 1. (Gamma.gamma 1.);
  check "Γ(2)" 1e-12 1. (Gamma.gamma 2.);
  check "Γ(5)" 1e-12 24. (Gamma.gamma 5.);
  check "Γ(10)" 1e-11 362880. (Gamma.gamma 10.)

let test_gamma_half () =
  check "Γ(1/2)" 1e-12 (sqrt Float.pi) (Gamma.gamma 0.5);
  check "Γ(3/2)" 1e-12 (sqrt Float.pi /. 2.) (Gamma.gamma 1.5);
  check "Γ(-1/2)" 1e-11 (-2. *. sqrt Float.pi) (Gamma.gamma (-0.5))

let test_gamma_recurrence () =
  List.iter
    (fun x -> check "Γ(x+1)=xΓ(x)" 1e-11 (x *. Gamma.gamma x) (Gamma.gamma (x +. 1.)))
    [ 0.3; 0.77; 1.9; 3.21; 7.5 ]

let test_lgamma_large () =
  (* Stirling check at x=100: lnΓ(100) = 359.1342053695754 *)
  check "lnΓ(100)" 1e-12 359.1342053695754 (Gamma.lgamma 100.)

(* Reference values from Abramowitz & Stegun / SciPy. *)
let test_bessel_k_reference () =
  check "K₀(1)" 1e-10 0.42102443824070834 (Bessel.bessel_k ~nu:0. 1.);
  check "K₁(1)" 1e-10 0.6019072301972346 (Bessel.bessel_k ~nu:1. 1.);
  check "K₀(5)" 1e-10 0.003691098334042594 (Bessel.bessel_k ~nu:0. 5.);
  check "K₂(0.5)" 1e-10 7.550183551240869 (Bessel.bessel_k ~nu:2. 0.5);
  check "K_{0.3}(0.1)" 1e-9 2.8050564750254116 (Bessel.bessel_k ~nu:0.3 0.1)

let test_bessel_i_reference () =
  check "I₀(1)" 1e-10 1.2660658777520082 (Bessel.bessel_i ~nu:0. 1.);
  check "I₁(1)" 1e-10 0.5651591039924851 (Bessel.bessel_i ~nu:1. 1.);
  check "I₀(5)" 1e-9 27.239871823604442 (Bessel.bessel_i ~nu:0. 5.)

let test_bessel_half_closed_form () =
  List.iter
    (fun x ->
      check "K_{1/2} closed form" 1e-12 (Bessel.bessel_k_half x)
        (Bessel.bessel_k ~nu:0.5 x))
    [ 0.05; 0.3; 1.; 2.; 5.; 20. ]

let test_bessel_recurrence () =
  (* K_{ν+1}(x) = K_{ν−1}(x) + (2ν/x)·K_ν(x). *)
  List.iter
    (fun (nu, x) ->
      let k_m = Bessel.bessel_k ~nu:(nu -. 1.) x in
      let k_0 = Bessel.bessel_k ~nu x in
      let k_p = Bessel.bessel_k ~nu:(nu +. 1.) x in
      check
        (Printf.sprintf "recurrence ν=%g x=%g" nu x)
        1e-9
        (k_m +. (2. *. nu /. x *. k_0))
        k_p)
    [ (1., 0.7); (1.3, 2.5); (2., 4.); (1.5, 0.2) ]

let test_bessel_wronskian () =
  (* I_ν(x)·K_{ν+1}(x) + I_{ν+1}(x)·K_ν(x) = 1/x. *)
  List.iter
    (fun (nu, x) ->
      let i0, k0 = Bessel.bessel_ik ~nu x in
      let i1, k1 = Bessel.bessel_ik ~nu:(nu +. 1.) x in
      check (Printf.sprintf "wronskian ν=%g x=%g" nu x) 1e-10 (1. /. x)
        ((i0 *. k1) +. (i1 *. k0)))
    [ (0., 0.5); (0.5, 1.); (0.25, 3.); (1.7, 0.3); (0.9, 8.) ]

let test_bessel_domain () =
  Alcotest.check_raises "x=0 rejected" (Invalid_argument "Bessel.bessel_ik: requires x > 0 and nu >= 0")
    (fun () -> ignore (Bessel.bessel_k ~nu:0.5 0.));
  Alcotest.check_raises "nu<0 rejected" (Invalid_argument "Bessel.bessel_ik: requires x > 0 and nu >= 0")
    (fun () -> ignore (Bessel.bessel_k ~nu:(-1.) 1.))

let test_bessel_k_positive_decreasing () =
  List.iter
    (fun nu ->
      let prev = ref infinity in
      List.iter
        (fun x ->
          let k = Bessel.bessel_k ~nu x in
          Alcotest.(check bool) "positive" true (k > 0.);
          Alcotest.(check bool) "decreasing in x" true (k < !prev);
          prev := k)
        [ 0.1; 0.5; 1.; 2.; 4.; 8. ])
    [ 0.1; 0.5; 1.; 1.9 ]

let prop_wronskian =
  QCheck.Test.make ~name:"wronskian holds over random (ν,x)" ~count:300
    QCheck.(pair (float_range 0. 3.) (float_range 0.05 30.))
    (fun (nu, x) ->
      let i0, k0 = Bessel.bessel_ik ~nu x in
      let i1, k1 = Bessel.bessel_ik ~nu:(nu +. 1.) x in
      releq ~tol:1e-8 (1. /. x) ((i0 *. k1) +. (i1 *. k0)))

let prop_k_decreasing_in_x =
  QCheck.Test.make ~name:"K_ν decreasing in x" ~count:300
    QCheck.(triple (float_range 0. 2.5) (float_range 0.05 20.) (float_range 0.05 20.))
    (fun (nu, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      lo = hi || Bessel.bessel_k ~nu lo >= Bessel.bessel_k ~nu hi)

(* {2 The K-only evaluator}

   [bessel_k] and [k_eval] compute K_ν without I_ν; [bessel_ik] computes
   both.  They must agree bit for bit.  The grid covers every branch:
   integer ν (the |μ| < 1e-6 limit of Temme's Γ pair), half-integer ν
   (nl rounds up, μ = −½), fractional ν in [0.25, 2.5], and x log-spaced
   over [1e-3, 30] plus both neighbours of the Temme/CF2 switch at x = 2
   and 2 itself. *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_k_only_bitwise () =
  let nus = [ 0.; 1.; 2.; 0.5; 1.5; 2.5; 0.25; 0.4; 0.6; 0.8; 1.25; 1.9; 2.2 ] in
  let xs =
    [ Float.pred 2.; 2.; Float.succ 2. ]
    @ List.init 241 (fun i -> 1e-3 *. Float.pow 10. (float_of_int i *. log10 3e4 /. 240.))
  in
  let mismatches = ref [] in
  List.iter
    (fun nu ->
      let plan = Bessel.k_plan ~nu in
      List.iter
        (fun x ->
          let k = snd (Bessel.bessel_ik ~nu x) in
          if not (same_bits k (Bessel.bessel_k ~nu x) && same_bits k (Bessel.k_eval plan x))
          then mismatches := (nu, x) :: !mismatches)
        xs)
    nus;
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "(nu, x) where K-only differs" []
    !mismatches

(* Reference bit patterns of K_ν.  The covariance matrices built on it
   are held to a bitwise contract across changes to this evaluator, so any
   change to its operations must show here. *)
let test_k_reference_bits () =
  List.iter
    (fun (nu, x, b) ->
      Alcotest.(check int64) (Printf.sprintf "K_%g(%g) bits" nu x) b
        (Int64.bits_of_float (Bessel.bessel_k ~nu x)))
    [
      (0., 0.5, 0x3fed94d74dd716aeL);
      (1., 2., 0x3fc1e7200e1d3486L);
      (2., 30., 0x3d19a2fc420e6e85L);
      (0.5, 1., 0x3fdd822578f46ff3L);
      (1.5, 2., 0x3fc7072e6e1e528dL);
      (2.5, 1e-3, 0x419c59115c7239d3L);
      (0.25, 1.999, 0x3fbd92c3acb6cc43L);
      (0.4, 5., 0x3f6eaf1ebbbf9a95L);
      (0.8, 0.05, 0x402609aa9764e7b1L);
      (0.63, 10., 0x3ef3000fb219b9f1L);
      (1.2, 2.000001, 0x3fc392dfa334f7c3L);
      (2., 0.7, 0x400d4a675ccc527cL);
    ];
  (* And the MD5 of K_ν's bits over a 10 × 3000 grid, x ∈ [0.01, 30]. *)
  let b = Buffer.create (8 * 30_000) in
  List.iter
    (fun nu ->
      for i = 1 to 3000 do
        Buffer.add_int64_le b (Int64.bits_of_float (Bessel.bessel_k ~nu (float_of_int i *. 1e-2)))
      done)
    [ 0.; 0.25; 0.4; 0.5; 0.6; 0.8; 1.; 1.5; 2.; 2.5 ];
  Alcotest.(check string) "grid digest" "aecbd4f00fcd45846c358b9865a98107"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let prop_k_only_bitwise =
  QCheck.Test.make ~name:"K-only K_ν bitwise equal to bessel_ik's" ~count:500
    QCheck.(pair (float_range 0.25 2.5) (float_range 1e-3 30.))
    (fun (nu, x) ->
      let k = snd (Bessel.bessel_ik ~nu x) in
      same_bits k (Bessel.bessel_k ~nu x) && same_bits k (Bessel.k_eval (Bessel.k_plan ~nu) x))

let () =
  Alcotest.run "specfun"
    [
      ( "gamma",
        [
          Alcotest.test_case "integers" `Quick test_gamma_integers;
          Alcotest.test_case "half integers" `Quick test_gamma_half;
          Alcotest.test_case "recurrence" `Quick test_gamma_recurrence;
          Alcotest.test_case "lgamma large" `Quick test_lgamma_large;
        ] );
      ( "bessel",
        [
          Alcotest.test_case "K reference values" `Quick test_bessel_k_reference;
          Alcotest.test_case "I reference values" `Quick test_bessel_i_reference;
          Alcotest.test_case "K half closed form" `Quick test_bessel_half_closed_form;
          Alcotest.test_case "recurrence" `Quick test_bessel_recurrence;
          Alcotest.test_case "wronskian" `Quick test_bessel_wronskian;
          Alcotest.test_case "domain errors" `Quick test_bessel_domain;
          Alcotest.test_case "positive decreasing" `Quick test_bessel_k_positive_decreasing;
          Alcotest.test_case "K-only bitwise grid" `Quick test_k_only_bitwise;
          Alcotest.test_case "K reference bits" `Quick test_k_reference_bits;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_wronskian; prop_k_decreasing_in_x; prop_k_only_bitwise ] );
    ]
