(** Reference FP64 dense kernels — the four numerical kernels of the tile
    Cholesky of Algorithm 1 (POTRF, TRSM, SYRK, GEMM) plus the triangular
    solves of its tile solves and of the TLR extension, and the dense
    references tests compare against ({!cholesky}, {!log_det_from_chol}).

    All kernels are written loop-order-aware for the column-major layout of
    {!Mat} and operate in place where BLAS would. *)

exception Not_positive_definite of int
(** Raised by {!potrf_lower} with the index of the failing pivot. *)

val gemm_nt : alpha:float -> Mat.t -> Mat.t -> beta:float -> Mat.t -> unit
(** [C ← α·A·Bᵀ + β·C] — the Cholesky update kernel (GEMM in Algorithm 1
    runs with α = −1, β = 1), and the one general product: [C ← α·A·B]
    is [gemm_nt] of [A] and [Mat.transpose B]. *)

val syrk_lower : alpha:float -> Mat.t -> beta:float -> Mat.t -> unit
(** [syrk_lower ~alpha a ~beta c]: [C ← α·A·Aᵀ + β·C], touching only the
    lower triangle of the square matrix [c]. *)

val trsm_right_lower_trans : l:Mat.t -> Mat.t -> unit
(** [trsm_right_lower_trans ~l b] solves [X·Lᵀ = B] in place in [b], with
    [l] lower triangular — the TRSM of Algorithm 1. *)

val trsm_left_lower_notrans : l:Mat.t -> Mat.t -> unit
(** [trsm_left_lower_notrans ~l b] solves [L·X = B] in place in [b] — the
    panel solve the TLR TRSM applies to a tile's V factor. *)

val potrf_lower : Mat.t -> unit
(** In-place lower Cholesky factorization of a symmetric positive-definite
    matrix (only the lower triangle is read; the strict upper triangle is
    left untouched).
    @raise Not_positive_definite if a pivot is not strictly positive. *)

val trsv_lower : l:Mat.t -> float array -> float array
(** Solve [L·y = b] (forward substitution). *)

val trsv_lower_trans : l:Mat.t -> float array -> float array
(** Solve [Lᵀ·x = b] (backward substitution). *)

val cholesky : Mat.t -> Mat.t
(** Convenience: copy, factorize, zero the upper triangle; the input is a
    full symmetric matrix. *)

val log_det_from_chol : Mat.t -> float
(** [2·Σ log L_ii] — the log-determinant term of the Gaussian
    log-likelihood, Eq. (1) of the paper. *)
