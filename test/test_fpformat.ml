module Fp = Geomix_precision.Fpformat

let scalar = Alcotest.testable Fp.pp_scalar ( = )

let test_fp64_identity () =
  List.iter
    (fun x -> Alcotest.(check (float 0.)) "identity" x (Fp.round Fp.S_fp64 x))
    [ 0.; 1.; -1.; Float.pi; 1e-300; 1e300; 0.1 ]

let test_special_values () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "nan" true (Float.is_nan (Fp.round s nan));
      Alcotest.(check (float 0.)) "inf" infinity (Fp.round s infinity);
      Alcotest.(check (float 0.)) "-inf" neg_infinity (Fp.round s neg_infinity);
      Alcotest.(check (float 0.)) "zero" 0. (Fp.round s 0.))
    Fp.all_scalars

let test_exact_values_fixed () =
  (* Powers of two and small integers inside the format's range are exact
     in every format (1024 exceeds E4M3's 448 ceiling, so keep the probe
     set within every range). *)
  List.iter
    (fun s ->
      List.iter
        (fun x ->
          if Float.abs x <= Fp.scalar_max_value s then
            Alcotest.(check (float 0.)) "exact" x (Fp.round s x))
        [ 1.; 2.; 0.5; -4.; 1024.; 0.0625; 3.; -7. ])
    Fp.all_scalars

let test_fp16_known_roundings () =
  (* FP16 has a 10-bit stored mantissa: ulp at 1.0 is 2^-10. *)
  let ulp = Float.ldexp 1. (-10) in
  Alcotest.(check (float 0.)) "round down" 1. (Fp.round Fp.S_fp16 (1. +. (ulp /. 4.)));
  Alcotest.(check (float 0.)) "round up" (1. +. ulp)
    (Fp.round Fp.S_fp16 (1. +. (0.75 *. ulp)));
  (* Tie at half ulp goes to even (mantissa 0). *)
  Alcotest.(check (float 0.)) "tie to even" 1. (Fp.round Fp.S_fp16 (1. +. (ulp /. 2.)))

let test_fp16_overflow () =
  Alcotest.(check (float 0.)) "max fp16" 65504. (Fp.round Fp.S_fp16 65504.);
  Alcotest.(check (float 0.)) "overflow" infinity (Fp.round Fp.S_fp16 65520.);
  Alcotest.(check (float 0.)) "neg overflow" neg_infinity (Fp.round Fp.S_fp16 (-70000.))

let test_fp16_subnormals () =
  let tiny = Float.ldexp 1. (-24) in
  (* smallest fp16 subnormal *)
  Alcotest.(check (float 0.)) "subnormal exact" tiny (Fp.round Fp.S_fp16 tiny);
  Alcotest.(check (float 0.)) "below half-tiny flushes" 0.
    (Fp.round Fp.S_fp16 (tiny /. 4.));
  Alcotest.(check (float 0.)) "above half-tiny rounds up" tiny
    (Fp.round Fp.S_fp16 (0.6 *. tiny))

let test_bf16_range () =
  (* BF16 shares FP32's exponent range: 1e38 survives, precision is coarse. *)
  let r = Fp.round Fp.S_bf16 1e38 in
  Alcotest.(check bool) "finite" true (Float.is_finite r);
  Alcotest.(check bool) "coarse" true (Float.abs (r -. 1e38) /. 1e38 < 4e-3)

let test_fp32_matches_int32_roundtrip () =
  (* Values exactly representable in fp32 must round to themselves. *)
  List.iter
    (fun x -> Alcotest.(check (float 0.)) "fp32 exact" x (Fp.round Fp.S_fp32 x))
    [ 1.5; 3.25; 123456.; Float.ldexp 1. (-126); -0.1015625 ]

let test_unit_roundoff_ordering () =
  let u = Fp.scalar_unit_roundoff in
  Alcotest.(check bool) "fp64 < fp32" true (u Fp.S_fp64 < u Fp.S_fp32);
  Alcotest.(check bool) "fp32 < tf32" true (u Fp.S_fp32 < u Fp.S_tf32);
  Alcotest.(check bool) "tf32 = fp16" true (u Fp.S_tf32 = u Fp.S_fp16);
  Alcotest.(check bool) "fp16 < bf16" true (u Fp.S_fp16 < u Fp.S_bf16);
  Alcotest.(check bool) "bf16 < e4m3" true (u Fp.S_bf16 < u Fp.S_fp8_e4m3);
  Alcotest.(check bool) "e4m3 < e5m2" true (u Fp.S_fp8_e4m3 < u Fp.S_fp8_e5m2);
  Alcotest.(check (float 0.)) "e4m3 u" (Float.ldexp 1. (-4)) (u Fp.S_fp8_e4m3);
  Alcotest.(check (float 0.)) "e5m2 u" (Float.ldexp 1. (-3)) (u Fp.S_fp8_e5m2)

let test_bytes () =
  Alcotest.(check int) "fp64" 8 (Fp.scalar_bytes Fp.S_fp64);
  Alcotest.(check int) "fp32" 4 (Fp.scalar_bytes Fp.S_fp32);
  Alcotest.(check int) "tf32 stored as 4B" 4 (Fp.scalar_bytes Fp.S_tf32);
  Alcotest.(check int) "fp16" 2 (Fp.scalar_bytes Fp.S_fp16);
  Alcotest.(check int) "bf16" 2 (Fp.scalar_bytes Fp.S_bf16);
  Alcotest.(check int) "e4m3" 1 (Fp.scalar_bytes Fp.S_fp8_e4m3);
  Alcotest.(check int) "e5m2" 1 (Fp.scalar_bytes Fp.S_fp8_e5m2)

let test_higher_scalar () =
  Alcotest.(check scalar) "64 vs 16" Fp.S_fp64 (Fp.higher_scalar Fp.S_fp64 Fp.S_fp16);
  Alcotest.(check scalar) "16 vs 32" Fp.S_fp32 (Fp.higher_scalar Fp.S_fp16 Fp.S_fp32);
  Alcotest.(check scalar) "bf16 lowest" Fp.S_fp16 (Fp.higher_scalar Fp.S_bf16 Fp.S_fp16)

let test_precision_mappings () =
  Alcotest.(check scalar) "fp16_32 input" Fp.S_fp16 (Fp.input_scalar Fp.Fp16_32);
  Alcotest.(check scalar) "fp16_32 accum" Fp.S_fp32 (Fp.accum_scalar Fp.Fp16_32);
  Alcotest.(check scalar) "fp16 accum" Fp.S_fp16 (Fp.accum_scalar Fp.Fp16);
  Alcotest.(check scalar) "tf32 input" Fp.S_tf32 (Fp.input_scalar Fp.Tf32);
  Alcotest.(check scalar) "fp64 storage" Fp.S_fp64 (Fp.storage_scalar Fp.Fp64);
  (* TRSM cannot run below FP32 ⇒ FP16-class tiles are stored in FP32. *)
  Alcotest.(check scalar) "fp16 storage" Fp.S_fp32 (Fp.storage_scalar Fp.Fp16);
  Alcotest.(check scalar) "fp16_32 storage" Fp.S_fp32 (Fp.storage_scalar Fp.Fp16_32)

let test_rule_epsilon_ordering () =
  (* Lower precision ⇒ larger u_low ⇒ stricter norm threshold. *)
  Alcotest.(check bool) "chain" true
    (Fp.rule_epsilon Fp.Fp64 < Fp.rule_epsilon Fp.Fp32
    && Fp.rule_epsilon Fp.Fp32 < Fp.rule_epsilon Fp.Fp16_32
    && Fp.rule_epsilon Fp.Fp16_32 < Fp.rule_epsilon Fp.Fp16)

let test_names_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "of_string∘name" true (Fp.of_string (Fp.name p) = Some p))
    Fp.all;
  List.iter
    (fun s ->
      Alcotest.(check bool) "scalar roundtrip" true
        (Fp.scalar_of_string (Fp.scalar_name s) = Some s))
    Fp.all_scalars;
  Alcotest.(check bool) "unknown" true (Fp.of_string "FP8" = None)

(* --- FP8 (OCP e4m3 / e5m2) --------------------------------------------- *)

let fp8s = [ Fp.S_fp8_e4m3; Fp.S_fp8_e5m2 ]

let test_fp8_known_values () =
  (* E4M3: max finite 448 (all-ones pattern is NaN, not a number). *)
  Alcotest.(check (float 0.)) "e4m3 max" 448. (Fp.scalar_max_value Fp.S_fp8_e4m3);
  Alcotest.(check (float 0.)) "e4m3 max exact" 448. (Fp.round Fp.S_fp8_e4m3 448.);
  Alcotest.(check (float 0.)) "e5m2 max" 57344. (Fp.scalar_max_value Fp.S_fp8_e5m2);
  Alcotest.(check (float 0.)) "e5m2 max exact" 57344. (Fp.round Fp.S_fp8_e5m2 57344.);
  (* Smallest subnormals: 2^-9 and 2^-16. *)
  Alcotest.(check (float 0.)) "e4m3 tiny" (Float.ldexp 1. (-9))
    (Fp.scalar_min_subnormal Fp.S_fp8_e4m3);
  Alcotest.(check (float 0.)) "e5m2 tiny" (Float.ldexp 1. (-16))
    (Fp.scalar_min_subnormal Fp.S_fp8_e5m2);
  (* Grid rounding at 1.0: ulp is 2^-3 / 2^-2. *)
  Alcotest.(check (float 0.)) "e4m3 1+eps/4 down" 1.
    (Fp.round Fp.S_fp8_e4m3 (1. +. (0.25 /. 8.)));
  Alcotest.(check (float 0.)) "e4m3 tie to even" 1.
    (Fp.round Fp.S_fp8_e4m3 (1. +. (0.5 /. 8.)));
  Alcotest.(check (float 0.)) "e4m3 up" 1.125 (Fp.round Fp.S_fp8_e4m3 1.1);
  (* Subnormal flush boundary. *)
  Alcotest.(check (float 0.)) "e4m3 tiny/2 flushes" 0.
    (Fp.round Fp.S_fp8_e4m3 (Float.ldexp 1. (-10)));
  Alcotest.(check (float 0.)) "e4m3 0.75·tiny rounds up" (Float.ldexp 1. (-9))
    (Fp.round Fp.S_fp8_e4m3 (0.75 *. Float.ldexp 1. (-9)))

let test_fp8_saturation () =
  (* Finite overflow saturates to ±max instead of producing an infinity
     (which E4M3 does not even have). *)
  Alcotest.(check (float 0.)) "464 rounds to even 448" 448.
    (Fp.round Fp.S_fp8_e4m3 464.);
  Alcotest.(check (float 0.)) "465 saturates" 448. (Fp.round Fp.S_fp8_e4m3 465.);
  Alcotest.(check (float 0.)) "1e6 saturates" 448. (Fp.round Fp.S_fp8_e4m3 1e6);
  Alcotest.(check (float 0.)) "neg saturates" (-448.) (Fp.round Fp.S_fp8_e4m3 (-1e6));
  Alcotest.(check (float 0.)) "e5m2 saturates" 57344. (Fp.round Fp.S_fp8_e5m2 1e9);
  Alcotest.(check (float 0.)) "e5m2 neg" (-57344.) (Fp.round Fp.S_fp8_e5m2 (-61441.));
  (* Infinities still pass through round (they are inputs, not overflow). *)
  Alcotest.(check (float 0.)) "inf passes" infinity (Fp.round Fp.S_fp8_e4m3 infinity)

let test_fp8_codec_known_patterns () =
  (* E4M3: 0x7E = 448, 0x01 = 2^-9, 0x7F = NaN, 0x80 = -0. *)
  Alcotest.(check (float 0.)) "e4m3 0x7E" 448. (Fp.fp8_decode Fp.S_fp8_e4m3 0x7E);
  Alcotest.(check (float 0.)) "e4m3 0x01" (Float.ldexp 1. (-9))
    (Fp.fp8_decode Fp.S_fp8_e4m3 0x01);
  Alcotest.(check bool) "e4m3 0x7F nan" true
    (Float.is_nan (Fp.fp8_decode Fp.S_fp8_e4m3 0x7F));
  Alcotest.(check bool) "e4m3 0x80 is -0" true
    (Float.sign_bit (Fp.fp8_decode Fp.S_fp8_e4m3 0x80));
  (* E5M2: 0x7B = 57344 (max finite), 0x7C = +inf, 0x7D–0x7F = NaN. *)
  Alcotest.(check (float 0.)) "e5m2 0x7B" 57344. (Fp.fp8_decode Fp.S_fp8_e5m2 0x7B);
  Alcotest.(check (float 0.)) "e5m2 0x7C inf" infinity
    (Fp.fp8_decode Fp.S_fp8_e5m2 0x7C);
  Alcotest.(check (float 0.)) "e5m2 0xFC -inf" neg_infinity
    (Fp.fp8_decode Fp.S_fp8_e5m2 0xFC);
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "e5m2 0x%02X nan" b)
        true
        (Float.is_nan (Fp.fp8_decode Fp.S_fp8_e5m2 b)))
    [ 0x7D; 0x7E; 0x7F; 0xFD; 0xFE; 0xFF ]

(* The tentpole's exhaustive check: every one of the 256 bit patterns of
   each FP8 format round-trips through decode → encode.  Non-NaN patterns
   are exact fixed points of both the codec and [round]; NaN patterns stay
   NaN with their sign preserved (encode canonicalizes E5M2's three NaN
   mantissas). *)
let test_fp8_exhaustive_roundtrip () =
  List.iter
    (fun s ->
      for b = 0 to 255 do
        let name = Printf.sprintf "%s 0x%02X" (Fp.scalar_name s) b in
        let v = Fp.fp8_decode s b in
        if Float.is_nan v then begin
          let e = Fp.fp8_encode s v in
          Alcotest.(check bool) (name ^ " nan stays nan") true
            (Float.is_nan (Fp.fp8_decode s e));
          Alcotest.(check int) (name ^ " nan sign") (b land 0x80) (e land 0x80)
        end
        else begin
          Alcotest.(check int) (name ^ " roundtrip") b (Fp.fp8_encode s v);
          (* Every representable value is a fixed point of rounding. *)
          if Float.is_finite v then
            Alcotest.(check (float 0.)) (name ^ " fixed point") v (Fp.round s v)
        end
      done)
    fp8s

let test_fp8_encode_of_unrepresentable () =
  (* encode = encode ∘ round: saturation and ties handled identically. *)
  Alcotest.(check int) "465 → 0x7E" 0x7E (Fp.fp8_encode Fp.S_fp8_e4m3 465.);
  Alcotest.(check int) "-1e9 → 0xFE" 0xFE (Fp.fp8_encode Fp.S_fp8_e4m3 (-1e9));
  Alcotest.(check int) "e5m2 +inf → 0x7C" 0x7C (Fp.fp8_encode Fp.S_fp8_e5m2 infinity);
  Alcotest.(check int) "e4m3 +inf → 0x7E" 0x7E (Fp.fp8_encode Fp.S_fp8_e4m3 infinity);
  Alcotest.(check int) "e4m3 nan → 0x7F" 0x7F (Fp.fp8_encode Fp.S_fp8_e4m3 nan);
  Alcotest.(check int) "-0 → 0x80" 0x80 (Fp.fp8_encode Fp.S_fp8_e4m3 (-0.))

let test_fp8_partial_order () =
  (* Every wider format in the chain refines both FP8s... *)
  List.iter
    (fun t ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s refines %s" (Fp.scalar_name t) (Fp.scalar_name s))
            true (Fp.refines t s))
        fp8s)
    [ Fp.S_fp64; Fp.S_fp32; Fp.S_tf32; Fp.S_fp16; Fp.S_bf16 ];
  (* ...but the two FP8s are incomparable (precision vs range), like
     FP16/BF16 one level up. *)
  Alcotest.(check bool) "e4m3 !> e5m2" false (Fp.refines Fp.S_fp8_e4m3 Fp.S_fp8_e5m2);
  Alcotest.(check bool) "e5m2 !> e4m3" false (Fp.refines Fp.S_fp8_e5m2 Fp.S_fp8_e4m3);
  Alcotest.(check bool) "nothing below refines fp16" false
    (Fp.refines Fp.S_fp8_e4m3 Fp.S_fp16)

let fp8_value_gen =
  (* Concentrated where FP8 values live, including subnormal and
     saturation territory. *)
  QCheck.oneof
    [
      QCheck.float_range (-480.) 480.;
      QCheck.float_range (-1.) 1.;
      QCheck.float_range (-70000.) 70000.;
      QCheck.float_range (-0.01) 0.01;
    ]

let prop_fp8_round_idempotent =
  QCheck.Test.make ~name:"FP8 rounding is idempotent" ~count:2000
    (QCheck.pair (QCheck.oneofl fp8s) fp8_value_gen)
    (fun (s, x) ->
      let y = Fp.round s x in
      Fp.round s y = y)

let prop_fp8_round_monotone =
  QCheck.Test.make ~name:"FP8 rounding is monotone" ~count:2000
    (QCheck.triple (QCheck.oneofl fp8s) fp8_value_gen fp8_value_gen)
    (fun (s, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Fp.round s lo <= Fp.round s hi)

let prop_fp8_respects_partial_order =
  (* refines t s ⇒ re-rounding an s-value to t is the identity: an FP8
     result survives a trip through FP16/BF16 (or wider) untouched. *)
  QCheck.Test.make ~name:"FP8 values are fixed points of refining formats" ~count:2000
    (QCheck.triple (QCheck.oneofl fp8s)
       (QCheck.oneofl [ Fp.S_fp16; Fp.S_bf16; Fp.S_tf32; Fp.S_fp32 ])
       fp8_value_gen)
    (fun (s, t, x) ->
      let y = Fp.round s x in
      (not (Float.is_finite y)) || Fp.round t y = y)

let prop_fp8_codec_matches_round =
  QCheck.Test.make ~name:"fp8 decode∘encode = round" ~count:2000
    (QCheck.pair (QCheck.oneofl fp8s) fp8_value_gen)
    (fun (s, x) ->
      Fp.fp8_decode s (Fp.fp8_encode s x) = Fp.round s x
      || Float.is_nan x)

(* OCaml's Int32.bits_of_float performs IEEE double→single conversion with
   round-to-nearest-even in hardware: a perfect oracle for S_fp32. *)
let hw_fp32 x = Int32.float_of_bits (Int32.bits_of_float x)

let test_fp32_against_hardware_fixed () =
  List.iter
    (fun x ->
      let ours = Fp.round Fp.S_fp32 x and hw = hw_fp32 x in
      Alcotest.(check bool)
        (Printf.sprintf "%.17g: ours %.17g vs hw %.17g" x ours hw)
        true
        (ours = hw || (Float.is_nan ours && Float.is_nan hw)))
    [
      0.1; -0.1; Float.pi; exp 1.; 1e-40; -1e-40; 1e38; 3.4028235e38; 3.5e38;
      1.1754944e-38; 1e-45; 7e-46; 0.333333333333333; 65504.1; 2.0 ** 127.;
      1.9999999 *. (2.0 ** 127.); -123456.789;
    ]

let prop_fp32_matches_hardware =
  QCheck.Test.make ~name:"S_fp32 rounding = hardware float32 conversion" ~count:20000
    (QCheck.oneof
       [
         QCheck.float_range (-1e38) 1e38;
         QCheck.float_range (-1.) 1.;
         QCheck.float_range (-1e-37) 1e-37; (* subnormal territory *)
         QCheck.float_range 1e37 4e38;      (* overflow boundary *)
       ])
    (fun x ->
      let ours = Fp.round Fp.S_fp32 x and hw = hw_fp32 x in
      ours = hw || (Float.is_nan ours && Float.is_nan hw))

let float_gen = QCheck.float_range (-1e30) 1e30

let prop_idempotent =
  QCheck.Test.make ~name:"rounding is idempotent" ~count:2000
    (QCheck.pair (QCheck.oneofl Fp.all_scalars) float_gen)
    (fun (s, x) ->
      let y = Fp.round s x in
      (Float.is_nan y && Float.is_nan x) || Fp.round s y = y)

let prop_monotone =
  QCheck.Test.make ~name:"rounding is monotone" ~count:2000
    (QCheck.triple (QCheck.oneofl Fp.all_scalars) float_gen float_gen)
    (fun (s, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Fp.round s lo <= Fp.round s hi)

let prop_half_ulp =
  QCheck.Test.make ~name:"error within half ulp (normal range)" ~count:2000
    (QCheck.pair (QCheck.oneofl Fp.all_scalars) (QCheck.float_range (-1e4) 1e4))
    (fun (s, x) ->
      if x = 0. then true
      else begin
        let u = Fp.scalar_unit_roundoff s in
        (* The relative bound only holds inside the format's normal range:
           outside it FP8 saturates (and any format underflows gradually). *)
        let min_normal = Fp.scalar_min_subnormal s /. (2. *. u) in
        if Float.abs x > Fp.scalar_max_value s || Float.abs x < min_normal then true
        else begin
          let y = Fp.round s x in
          if not (Float.is_finite y) then true
          else Float.abs (y -. x) <= (u *. Float.abs x) +. 1e-300
        end
      end)

let prop_sign_preserved =
  QCheck.Test.make ~name:"sign preserved" ~count:1000
    (QCheck.pair (QCheck.oneofl Fp.all_scalars) float_gen)
    (fun (s, x) ->
      let y = Fp.round s x in
      y = 0. || Float.sign_bit y = Float.sign_bit x)

(* --- Rounding oracle ----------------------------------------------------- *)

(* The reference: rounding written straight from the definition through
   frexp/ldexp, as [Fp.round] did before its allocation-free core.  Slow,
   but every step is a textbook one.  [Fp.round] must match it bitwise. *)
let oracle_spec = function
  (* (stored significand bits, emin, emax) *)
  | Fp.S_fp64 -> (52, -1022, 1023)
  | Fp.S_fp32 -> (23, -126, 127)
  | Fp.S_tf32 -> (10, -126, 127)
  | Fp.S_bf16 -> (7, -126, 127)
  | Fp.S_fp16 -> (10, -14, 15)
  | Fp.S_fp8_e4m3 -> (3, -6, 8)
  | Fp.S_fp8_e5m2 -> (2, -14, 15)

let oracle_max s =
  match s with
  | Fp.S_fp8_e4m3 -> 448.
  | _ ->
    let mant, _, emax = oracle_spec s in
    Float.ldexp (2. -. Float.ldexp 1. (-mant)) emax

let oracle_saturating = function Fp.S_fp8_e4m3 | Fp.S_fp8_e5m2 -> true | _ -> false

(* Round to nearest integer, ties to even: [Float.round] rounds ties away
   from zero, so ties are nudged back to the even neighbour. *)
let round_half_even x =
  let f = Float.round x in
  if Float.abs (x -. Float.trunc x) = 0.5 then
    if Float.rem f 2. <> 0. then f -. Float.copy_sign 1. x else f
  else f

let oracle_round s x =
  match s with
  | Fp.S_fp64 -> x
  | _ ->
    if x = 0. || not (Float.is_finite x) then x
    else begin
      let mant, emin, emax = oracle_spec s in
      let overflow () =
        if oracle_saturating s then Float.copy_sign (oracle_max s) x
        else Float.copy_sign infinity x
      in
      let _, e = Float.frexp x in
      (* x = m·2^e with |m| ∈ [0.5, 1); the unbiased exponent is e − 1. *)
      let eu = e - 1 in
      if eu > emax then overflow ()
      else begin
        let p = mant + 1 in
        let p = if eu < emin then p - (emin - eu) else p in
        if p <= 0 then begin
          (* Below the subnormal grid: 0 or the smallest subnormal. *)
          let tiny = Float.ldexp 1. (emin - mant) in
          if Float.abs x > tiny /. 2. then Float.copy_sign tiny x else Float.copy_sign 0. x
        end
        else begin
          let shift = p - e in
          let y = Float.ldexp (round_half_even (Float.ldexp x shift)) (-shift) in
          if Float.abs y > oracle_max s then overflow () else y
        end
      end
    end

let bits = Int64.bits_of_float

(* Every input in [xs] and its negation, compared bitwise; reports the first
   mismatch and how many there were. *)
let check_against_oracle s xs =
  let bad = ref 0 and first = ref None and total = ref 0 in
  let one x =
    incr total;
    let ours = Fp.round s x and want = oracle_round s x in
    if not (Int64.equal (bits ours) (bits want)) then begin
      incr bad;
      if !first = None then first := Some (x, ours, want)
    end
  in
  List.iter (fun x -> one x; one (-.x)) xs;
  match !first with
  | None -> ()
  | Some (x, ours, want) ->
    Alcotest.failf "%s: %d of %d inputs differ; first %h: got %h, want %h"
      (Fp.scalar_name s) !bad !total x ours want

(* Every non-negative finite value of [s] in increasing order, followed by
   the first grid point past the largest (the overflow side). *)
let grid s =
  let mant, emin, _ = oracle_spec s in
  let maxv = oracle_max s in
  let rec go v acc =
    let _, e = Float.frexp v in
    let eu = if v = 0. then emin else Int.max (e - 1) emin in
    let next = v +. Float.ldexp 1. (eu - mant) in
    if v >= maxv then List.rev (next :: v :: acc) else go next (v :: acc)
  in
  go 0. []

let with_neighbours x acc = Float.pred x :: x :: Float.succ x :: acc

(* Each grid value, each midpoint between neighbours, and the doubles one
   ulp either side of both. *)
let grid_probes s =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      go (with_neighbours a (with_neighbours ((a +. b) /. 2.) acc)) rest
    | [ last ] -> with_neighbours last acc
    | [] -> acc
  in
  go [] (grid s)

let test_oracle_exhaustive () =
  List.iter
    (fun s ->
      let probes = grid_probes s in
      (* Sanity: the enumeration really is exhaustive for the FP8 formats. *)
      (match s with
       | Fp.S_fp8_e4m3 | Fp.S_fp8_e5m2 ->
         let finite = List.length (grid s) - 1 in
         let want = if s = Fp.S_fp8_e4m3 then 127 else 124 in
         Alcotest.(check int) (Fp.scalar_name s ^ " grid size") want finite
       | _ -> ());
      check_against_oracle s probes)
    [ Fp.S_fp8_e4m3; Fp.S_fp8_e5m2; Fp.S_fp16; Fp.S_bf16 ]

(* FP32 and TF32 are too large to enumerate: sweep every binade from below
   the subnormals to past overflow, at grid points, midpoints and their ulp
   neighbours for a spread of significands. *)
let test_oracle_binade_sweep () =
  let rng = Random.State.make [| 12 |] in
  List.iter
    (fun s ->
      let mant, emin, emax = oracle_spec s in
      let steps = 1 lsl mant in
      let xs = ref [] in
      for e = emin - mant - 3 to emax + 2 do
        let ks =
          [ 0; 1; 2; 3; steps / 2; steps - 2; steps - 1 ]
          @ List.init 8 (fun _ -> Random.State.int rng steps)
        in
        List.iter
          (fun k ->
            let g = Float.ldexp (1. +. (float_of_int k /. float_of_int steps)) e in
            let mid = g +. Float.ldexp 1. (e - mant - 1) in
            xs := with_neighbours g (with_neighbours mid !xs))
          ks
      done;
      check_against_oracle s !xs)
    [ Fp.S_fp32; Fp.S_tf32 ]

let test_oracle_special_inputs () =
  let fp64_subnormals =
    [ Float.ldexp 1. (-1074); Float.ldexp 3. (-1074); Float.pred Float.min_float; Float.min_float ]
  in
  List.iter
    (fun s ->
      let maxv = Fp.scalar_max_value s in
      Alcotest.(check (float 0.)) (Fp.scalar_name s ^ " max value") (oracle_max s) maxv;
      check_against_oracle s
        ([ 0.; infinity; nan; maxv; Float.succ maxv; Float.max_float ] @ fp64_subnormals);
      (* NaN passes through bit for bit, zeros keep their sign. *)
      Alcotest.(check bool) "nan" true (Float.is_nan (Fp.round s nan));
      Alcotest.(check bool) "-0 stays -0" true (Int64.equal (bits (-0.)) (bits (Fp.round s (-0.))));
      if s <> Fp.S_fp64 then begin
        (* The next grid point past the largest value overflows: FP8
           saturates, everything else goes to ±inf. *)
        let mant, _, emax = oracle_spec s in
        let past = maxv +. Float.ldexp 1. (emax - mant) in
        let want = if oracle_saturating s then maxv else infinity in
        Alcotest.(check (float 0.)) (Fp.scalar_name s ^ " overflow") want (Fp.round s past);
        Alcotest.(check (float 0.)) (Fp.scalar_name s ^ " -overflow") (-.want) (Fp.round s (-.past));
        check_against_oracle s [ past; Float.pred past; Float.succ past ]
      end)
    Fp.all_scalars

let prop_oracle_any_double =
  (* Uniform over bit patterns: every exponent, subnormals, inf and NaN. *)
  QCheck.Test.make ~name:"round = oracle on random bit patterns" ~count:20000
    (QCheck.pair (QCheck.oneofl Fp.all_scalars) QCheck.int64)
    (fun (s, b) ->
      let x = Int64.float_of_bits b in
      Int64.equal (bits (Fp.round s x)) (bits (oracle_round s x)))

let prop_oracle_fp32_tf32 =
  QCheck.Test.make ~name:"FP32/TF32 round = oracle" ~count:20000
    (QCheck.pair
       (QCheck.oneofl [ Fp.S_fp32; Fp.S_tf32 ])
       (QCheck.oneof
          [
            QCheck.float_range (-1e38) 1e38;
            QCheck.float_range (-1.) 1.;
            QCheck.float_range (-1e-37) 1e-37;
            QCheck.float_range 1e37 4e38;
          ]))
    (fun (s, x) -> Int64.equal (bits (Fp.round s x)) (bits (oracle_round s x)))

let () =
  Alcotest.run "fpformat"
    [
      ( "rounding",
        [
          Alcotest.test_case "fp64 identity" `Quick test_fp64_identity;
          Alcotest.test_case "special values" `Quick test_special_values;
          Alcotest.test_case "exact values" `Quick test_exact_values_fixed;
          Alcotest.test_case "fp16 known roundings" `Quick test_fp16_known_roundings;
          Alcotest.test_case "fp16 overflow" `Quick test_fp16_overflow;
          Alcotest.test_case "fp16 subnormals" `Quick test_fp16_subnormals;
          Alcotest.test_case "bf16 range" `Quick test_bf16_range;
          Alcotest.test_case "fp32 exact values" `Quick test_fp32_matches_int32_roundtrip;
          Alcotest.test_case "fp32 = hardware (fixed cases)" `Quick
            test_fp32_against_hardware_fixed;
          QCheck_alcotest.to_alcotest prop_fp32_matches_hardware;
        ] );
      ( "format metadata",
        [
          Alcotest.test_case "unit roundoff ordering" `Quick test_unit_roundoff_ordering;
          Alcotest.test_case "bytes" `Quick test_bytes;
          Alcotest.test_case "higher_scalar" `Quick test_higher_scalar;
          Alcotest.test_case "precision mappings" `Quick test_precision_mappings;
          Alcotest.test_case "rule epsilon ordering" `Quick test_rule_epsilon_ordering;
          Alcotest.test_case "names roundtrip" `Quick test_names_roundtrip;
        ] );
      ( "fp8",
        [
          Alcotest.test_case "known values" `Quick test_fp8_known_values;
          Alcotest.test_case "saturation" `Quick test_fp8_saturation;
          Alcotest.test_case "codec known patterns" `Quick test_fp8_codec_known_patterns;
          Alcotest.test_case "exhaustive 256-pattern roundtrip" `Quick
            test_fp8_exhaustive_roundtrip;
          Alcotest.test_case "encode of unrepresentable" `Quick
            test_fp8_encode_of_unrepresentable;
          Alcotest.test_case "partial order" `Quick test_fp8_partial_order;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_idempotent; prop_monotone; prop_half_ulp; prop_sign_preserved;
            prop_fp8_round_idempotent; prop_fp8_round_monotone;
            prop_fp8_respects_partial_order; prop_fp8_codec_matches_round;
          ] );
      ( "oracle",
        [
          Alcotest.test_case "FP8/FP16/BF16 exhaustive" `Quick test_oracle_exhaustive;
          Alcotest.test_case "FP32/TF32 binade sweep" `Quick test_oracle_binade_sweep;
          Alcotest.test_case "special inputs" `Quick test_oracle_special_inputs;
          QCheck_alcotest.to_alcotest prop_oracle_any_double;
          QCheck_alcotest.to_alcotest prop_oracle_fp32_tf32;
        ] );
    ]
