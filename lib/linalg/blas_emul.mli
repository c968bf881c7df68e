(** Precision-emulated tile kernels.

    Each kernel mirrors its {!Blas} counterpart but executes under a kernel
    precision {!Geomix_precision.Fpformat.t}, reproducing numerically what a
    GPU kernel of that precision would compute:

    - operands are first rounded to the precision's {e input} scalar (FP16
      for the tensor-core modes FP16_32/BF16_32, TF32 for TF32, ...);
    - results are rounded to the precision's {e accumulate} scalar.

    The kernels round operands and results at tile boundaries only and
    accumulate in binary64 — O(n²) roundings per tile.  This preserves the
    dominant error source (operand quantisation) and is what every
    factorization runs, as recorded in DESIGN.md.  FP64 runs the reference
    kernel unchanged.  Rounding after {e every} accumulation, the
    hardware-accurate O(n³) model, is kept only for the Fig 1 study
    ({!gemm_accuracy}). *)

val gemm_nt :
  prec:Geomix_precision.Fpformat.t ->
  alpha:float ->
  Mat.t ->
  Mat.t ->
  beta:float ->
  Mat.t ->
  unit
(** Emulated [C ← α·A·Bᵀ + β·C]. *)

val syrk_lower :
  prec:Geomix_precision.Fpformat.t -> alpha:float -> Mat.t -> beta:float -> Mat.t -> unit

val trsm_right_lower_trans : prec:Geomix_precision.Fpformat.t -> l:Mat.t -> Mat.t -> unit

val potrf_lower : prec:Geomix_precision.Fpformat.t -> Mat.t -> unit
(** @raise Blas.Not_positive_definite like the reference kernel. *)

val gemm_accuracy :
  prec:Geomix_precision.Fpformat.t -> n:int -> rng:Geomix_util.Rng.t -> float
(** The Fig 1 accuracy experiment: random uniform [n]×[n] operands A then
    B drawn from [rng] in {!Mat.init} order, one GEMM that rounds every
    accumulation to the accumulate scalar, returns
    ‖C_prec − C_fp64‖_F / ‖C_fp64‖_F. *)
