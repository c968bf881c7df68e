type scalar = S_fp64 | S_fp32 | S_tf32 | S_bf16 | S_fp16 | S_fp8_e4m3 | S_fp8_e5m2

let all_scalars = [ S_fp64; S_fp32; S_tf32; S_bf16; S_fp16; S_fp8_e4m3; S_fp8_e5m2 ]

type spec = { mant : int; emin : int; emax : int; max_value : float; saturate : bool }
(* [mant] is the number of explicitly stored significand bits; representable
   normal values are ±(1.m)·2^e with emin ≤ e ≤ emax, subnormals below.
   [max_value] is the largest finite magnitude and [saturate] says whether
   finite overflow clamps to it instead of producing an infinity. *)

let make_spec ?(saturate = false) mant emin emax =
  let max_value = Float.ldexp (2. -. Float.ldexp 1. (-mant)) emax in
  { mant; emin; emax; max_value; saturate }

(* Built once, so [spec_of] never allocates.  The FP8 formats saturate on
   finite overflow (OCP spec / saturating casts).  OCP FP8 E4M3 reserves
   the all-ones pattern (S.1111.111) for NaN, so its largest finite
   magnitude is 1.110·2^8 = 448, not the generic (2 − 2^-3)·2^8 = 480. *)
let spec_fp64 = make_spec 52 (-1022) 1023
let spec_fp32 = make_spec 23 (-126) 127
let spec_tf32 = make_spec 10 (-126) 127
let spec_bf16 = make_spec 7 (-126) 127
let spec_fp16 = make_spec 10 (-14) 15
let spec_fp8_e4m3 = { (make_spec ~saturate:true 3 (-6) 8) with max_value = 448. }
let spec_fp8_e5m2 = make_spec ~saturate:true 2 (-14) 15

let spec_of = function
  | S_fp64 -> spec_fp64
  | S_fp32 -> spec_fp32
  | S_tf32 -> spec_tf32
  | S_bf16 -> spec_bf16
  | S_fp16 -> spec_fp16
  | S_fp8_e4m3 -> spec_fp8_e4m3
  | S_fp8_e5m2 -> spec_fp8_e5m2

let scalar_max_value s = (spec_of s).max_value

(* The rounding core, for every format with at most 51 stored significand
   bits (everything but FP64).  The quantum of |x| in the target format is
   q = 2^(max(e, emin) − mant), where e is the binary64 exponent of x.  With
   C = 2^52·q, |x| + C lies in [2^52·q, 2^53·q), where binary64's spacing is
   exactly q, so the hardware addition rounds |x| to a multiple of q with
   ties to even (C/q = 2^52 is even), and subtracting C again is exact.
   That covers the normal grid, the subnormal grid and underflow to zero;
   the sign is put back at the end, so zeros keep theirs.  NaN and ±inf
   come back unchanged.  It is inlined into both callers below and uses
   only primitives and unboxed no-alloc externals, so it allocates
   nothing. *)
let[@inline] round_spec sp x =
  let hi = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 52) in
  let biased = hi land 0x7FF in
  if biased = 0x7FF then x
  else begin
    let e = biased - 1023 in
    let r =
      if e > sp.emax then infinity
      else begin
        let eq = (if e < sp.emin then sp.emin else e) - sp.mant in
        let c =
          Int64.float_of_bits (Int64.shift_left (Int64.of_int (eq + 52 + 1023)) 52)
        in
        (Float.abs x +. c) -. c
      end
    in
    let r =
      if r <= sp.max_value then r else if sp.saturate then sp.max_value else infinity
    in
    if hi > 0x7FF then -.r else r
  end

let round s x = match s with S_fp64 -> x | _ -> round_spec (spec_of s) x

(* The annotation lets the compiler specialise the bigarray accesses. *)
let round_inplace s
    (buf : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  match s with
  | S_fp64 -> ()
  | _ ->
    let sp = spec_of s in
    for k = 0 to Bigarray.Array1.dim buf - 1 do
      Bigarray.Array1.unsafe_set buf k (round_spec sp (Bigarray.Array1.unsafe_get buf k))
    done

let scalar_bytes = function
  | S_fp64 -> 8
  | S_fp32 | S_tf32 -> 4
  | S_bf16 | S_fp16 -> 2
  | S_fp8_e4m3 | S_fp8_e5m2 -> 1

let scalar_unit_roundoff s =
  let { mant; _ } = spec_of s in
  Float.ldexp 1. (-(mant + 1))

let scalar_min_subnormal s =
  let { mant; emin; _ } = spec_of s in
  Float.ldexp 1. (emin - mant)

let scalar_rank = function
  | S_fp64 -> 7
  | S_fp32 -> 6
  | S_tf32 -> 5
  | S_fp16 -> 4
  | S_bf16 -> 3
  | S_fp8_e4m3 -> 2
  | S_fp8_e5m2 -> 1

let higher_scalar a b = if scalar_rank a >= scalar_rank b then a else b

(* [refines t s]: every value representable in [s] is also representable in
   [t] — at least as many significand bits and a wider exponent range on
   both sides.  Note this is a partial order, not the [scalar_rank] chain:
   FP16 and BF16 are incomparable (more mantissa vs more range). *)
let refines t s =
  let a = spec_of t and b = spec_of s in
  a.mant >= b.mant && a.emin <= b.emin && a.emax >= b.emax

let scalar_name = function
  | S_fp64 -> "FP64"
  | S_fp32 -> "FP32"
  | S_tf32 -> "TF32"
  | S_bf16 -> "BF16"
  | S_fp16 -> "FP16"
  | S_fp8_e4m3 -> "FP8_E4M3"
  | S_fp8_e5m2 -> "FP8_E5M2"

let scalar_of_string s =
  match String.uppercase_ascii s with
  | "FP64" -> Some S_fp64
  | "FP32" -> Some S_fp32
  | "TF32" -> Some S_tf32
  | "BF16" -> Some S_bf16
  | "FP16" -> Some S_fp16
  | "FP8_E4M3" | "E4M3" -> Some S_fp8_e4m3
  | "FP8_E5M2" | "E5M2" -> Some S_fp8_e5m2
  | _ -> None

let pp_scalar ppf s = Format.pp_print_string ppf (scalar_name s)

(* --- FP8 byte codec ---------------------------------------------------- *)

(* (exponent bits, mantissa bits, bias).  E4M3 follows the OCP variant: no
   infinities, NaN only at S.1111.111; E5M2 is IEEE-structured with ±inf at
   S.11111.00 and NaNs at nonzero mantissa under the all-ones exponent. *)
let fp8_params = function
  | S_fp8_e4m3 -> (4, 3, 7)
  | S_fp8_e5m2 -> (5, 2, 15)
  | s -> invalid_arg ("Fpformat.fp8: not an FP8 scalar: " ^ scalar_name s)

let fp8_decode s b =
  if b < 0 || b > 255 then invalid_arg "Fpformat.fp8_decode: byte out of range";
  let ebits, mbits, bias = fp8_params s in
  let sign = if b land 0x80 <> 0 then -1. else 1. in
  let e = (b lsr mbits) land ((1 lsl ebits) - 1) in
  let m = b land ((1 lsl mbits) - 1) in
  let e_ones = (1 lsl ebits) - 1 in
  if e = 0 then sign *. Float.ldexp (float_of_int m) (1 - bias - mbits)
  else if s = S_fp8_e5m2 && e = e_ones then
    if m = 0 then sign *. infinity else Float.copy_sign nan sign
  else if s = S_fp8_e4m3 && e = e_ones && m = (1 lsl mbits) - 1 then
    Float.copy_sign nan sign
  else sign *. Float.ldexp (float_of_int ((1 lsl mbits) lor m)) (e - bias - mbits)

let fp8_encode s x =
  let ebits, mbits, bias = fp8_params s in
  let e_ones = (1 lsl ebits) - 1 in
  let sign_bit = if Float.sign_bit x then 0x80 else 0 in
  if Float.is_nan x then
    (* Canonical quiet NaN: E4M3's single pattern; E5M2's quiet bit set. *)
    if s = S_fp8_e4m3 then sign_bit lor (e_ones lsl mbits) lor ((1 lsl mbits) - 1)
    else sign_bit lor (e_ones lsl mbits) lor (1 lsl (mbits - 1))
  else begin
    let y = round s x in
    if y = 0. then sign_bit
    else if Float.is_finite y then begin
      let m, e = Float.frexp (Float.abs y) in
      let eu = e - 1 in
      let emin = 1 - bias in
      if eu < emin then
        (* Subnormal: field = |y| / 2^(emin - mbits). *)
        sign_bit lor int_of_float (Float.ldexp (Float.abs y) (bias - 1 + mbits))
      else
        sign_bit
        lor ((eu + bias) lsl mbits)
        lor int_of_float (Float.ldexp (m -. 0.5) (mbits + 1))
    end
    else if s = S_fp8_e5m2 then sign_bit lor (e_ones lsl mbits) (* ±inf *)
    else sign_bit lor (e_ones lsl mbits) lor ((1 lsl mbits) - 2) (* ±448: E4M3 has no inf *)
  end

type t = Fp64 | Fp32 | Tf32 | Fp16_32 | Bf16_32 | Fp16

let all = [ Fp64; Fp32; Tf32; Fp16_32; Bf16_32; Fp16 ]
let framework_chain = [ Fp64; Fp32; Fp16_32; Fp16 ]

let input_scalar = function
  | Fp64 -> S_fp64
  | Fp32 -> S_fp32
  | Tf32 -> S_tf32
  | Fp16_32 -> S_fp16
  | Bf16_32 -> S_bf16
  | Fp16 -> S_fp16

let accum_scalar = function
  | Fp64 -> S_fp64
  | Fp32 | Tf32 | Fp16_32 | Bf16_32 -> S_fp32
  | Fp16 -> S_fp16

let storage_scalar = function Fp64 -> S_fp64 | Fp32 | Tf32 | Fp16_32 | Bf16_32 | Fp16 -> S_fp32

let rule_epsilon = function
  | Fp64 -> Float.ldexp 1. (-53)
  | Fp32 -> Float.ldexp 1. (-24)
  | Tf32 -> Float.ldexp 1. (-11)
  | Fp16_32 -> Float.ldexp 1. (-13)
  | Bf16_32 -> Float.ldexp 1. (-10)
  | Fp16 -> Float.ldexp 1. (-11)

let rank = function
  | Fp64 -> 6
  | Fp32 -> 5
  | Tf32 -> 4
  | Fp16_32 -> 3
  | Bf16_32 -> 2
  | Fp16 -> 1

let compare_precision a b = Int.compare (rank a) (rank b)

let name = function
  | Fp64 -> "FP64"
  | Fp32 -> "FP32"
  | Tf32 -> "TF32"
  | Fp16_32 -> "FP16_32"
  | Bf16_32 -> "BF16_32"
  | Fp16 -> "FP16"

let of_string s =
  match String.uppercase_ascii s with
  | "FP64" -> Some Fp64
  | "FP32" -> Some Fp32
  | "TF32" -> Some Tf32
  | "FP16_32" -> Some Fp16_32
  | "BF16_32" -> Some Bf16_32
  | "FP16" -> Some Fp16
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (name t)
