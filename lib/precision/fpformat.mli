(** Floating-point formats and bit-accurate software rounding.

    OCaml only has native IEEE-754 binary64, so every lower precision the
    paper exploits (FP32, TF32, FP16, BF16 and the tensor-core mixed modes
    FP16_32 / BF16_32) is emulated by rounding binary64 values to the target
    format with round-to-nearest-even, including subnormal handling and
    overflow to infinity.  This reproduces the *numerical* behaviour of the
    GPU kernels exactly at the value level.

    Two layers of vocabulary, mirroring the paper:

    - {!scalar} is a storage/transfer format — how many bytes a value takes
      on a wire or in memory and to which grid it rounds;
    - {!t} is a {e kernel} (operation) precision — the label attached to a
      tile by the adaptive strategy.  Mixed modes such as [Fp16_32] read
      FP16 inputs but accumulate in FP32, hence they map to {e two} scalars
      ({!input_scalar} and {!accum_scalar}). *)

(** {1 Scalar formats} *)

type scalar = S_fp64 | S_fp32 | S_tf32 | S_bf16 | S_fp16 | S_fp8_e4m3 | S_fp8_e5m2
(** [S_fp8_e4m3] and [S_fp8_e5m2] are the OCP 8-bit formats: E4M3
    (4 exponent / 3 mantissa bits, bias 7, max finite 448, no infinities,
    NaN only at S.1111.111) and E5M2 (5/2, bias 15, max finite 57344,
    IEEE-structured inf/NaN).  Both round to nearest even and {e saturate}
    on finite overflow instead of producing an infinity. *)

val all_scalars : scalar list

val round : scalar -> float -> float
(** [round s x] is the nearest value of format [s] to [x] (ties to even),
    with gradual underflow and overflow to [infinity] — except the FP8
    formats, which saturate finite overflow to ±{!scalar_max_value}.  NaN
    and infinities pass through; [round S_fp64] is the identity on finite
    floats. *)

val round_inplace :
  scalar -> (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t -> unit
(** [round_inplace s buf] replaces every element [x] of [buf] by [round s x]
    (bitwise the same rounding) without allocating. *)

val scalar_bytes : scalar -> int
(** Storage/transfer footprint per element (TF32 occupies 4 bytes). *)

val scalar_unit_roundoff : scalar -> float
(** Unit roundoff [u = 2^-p] where [p] is the significand length. *)

val scalar_min_subnormal : scalar -> float
(** Smallest positive representable value, [2^(emin - mant)] — the spacing
    of the subnormal grid.  Rounding a binary64 value into format [s] moves
    it by at most [u·|x|] in the normal range and by at most half this
    spacing under gradual underflow; the integrity layer's
    conversion-tolerant fingerprints use both bounds. *)

val scalar_max_value : scalar -> float
(** Largest finite representable magnitude. *)

val scalar_rank : scalar -> int
(** Total order by "amount of information":
    FP64 > FP32 > TF32 > FP16 > BF16 > FP8-E4M3 > FP8-E5M2.
    Used to pick the highest precision among successors in Algorithm 2. *)

val higher_scalar : scalar -> scalar -> scalar
(** Maximum under {!scalar_rank}. *)

val refines : scalar -> scalar -> bool
(** [refines t s] iff every value representable in [s] is also
    representable in [t] (at least as many significand bits, wider
    exponent range).  A partial order, not the {!scalar_rank} chain: FP16
    and BF16 are incomparable.  Rounding to [s] then to [t] is the
    identity on the result exactly when this holds. *)

val scalar_name : scalar -> string
val scalar_of_string : string -> scalar option
val pp_scalar : Format.formatter -> scalar -> unit

(** {1 FP8 byte codec}

    The two FP8 formats are small enough to enumerate, so the test suite
    round-trips every one of the 256 bit patterns through this codec. *)

val fp8_decode : scalar -> int -> float
(** [fp8_decode s b] is the value of bit pattern [b] (0–255, sign bit at
    0x80) under FP8 format [s].  E5M2 decodes S.11111.00 to ±inf and
    nonzero-mantissa all-ones-exponent patterns to NaN; E4M3 decodes only
    S.1111.111 to NaN.  Raises [Invalid_argument] if [s] is not an FP8
    scalar or [b] is out of range. *)

val fp8_encode : scalar -> float -> int
(** [fp8_encode s x] is the bit pattern of [round s x]: round to nearest
    even, saturate finite overflow to the max-finite pattern, preserve the
    sign of zeros.  NaN encodes to the canonical quiet NaN of [s]
    (E4M3: S.1111.111; E5M2: S.11111.10); ±inf to E5M2's infinity patterns
    and to E4M3's ±448 (it has none).  [fp8_decode s (fp8_encode s x) =
    round s x] for all non-NaN [x]. *)

(** {1 Kernel (operation) precisions} *)

type t = Fp64 | Fp32 | Tf32 | Fp16_32 | Bf16_32 | Fp16
(** The precision labels of the paper's adaptive framework.  The framework
    of Sections V–VI uses the chain [Fp64 > Fp32 > Fp16_32 > Fp16]; [Tf32]
    and [Bf16_32] are retained for the GEMM benchmark (Fig 1) and the BF16
    ablation. *)

val all : t list
val framework_chain : t list
(** [\[Fp64; Fp32; Fp16_32; Fp16\]] — the precisions admitted into the
    adaptive framework (Section IV conclusion). *)

val input_scalar : t -> scalar
(** Format of the A/B operands a kernel of this precision consumes
    ([Fp16_32] consumes FP16 inputs). *)

val accum_scalar : t -> scalar
(** Format in which products are accumulated ([Fp16_32], [Bf16_32] and
    [Tf32] accumulate in FP32; [Fp16] accumulates in FP16). *)

val storage_scalar : t -> scalar
(** Format in which a tile of this kernel precision is {e stored}: FP64
    tiles in FP64; everything else in FP32, because TRSM cannot execute
    below FP32 on the target GPUs (Section V, Fig 2b). *)

val rule_epsilon : t -> float
(** The [u_low] plugged into the Higham–Mary tile rule.  Format constants
    for pure formats; for [Fp16_32]/[Bf16_32] the paper determines the
    effective epsilon experimentally — we calibrate once with the emulated
    GEMM error study and fix 2{^-13} / 2{^-10}. *)

val rank : t -> int
(** Chain position, [Fp16] lowest. *)

val compare_precision : t -> t -> int
val name : t -> string
val of_string : string -> t option
val pp : Format.formatter -> t -> unit
