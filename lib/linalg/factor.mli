(** Orthogonal factorizations for the low-rank tile algebra: thin
    Householder QR for tall-skinny factor panels and a one-sided Jacobi SVD
    for the small recompression cores.  Both are classical textbook
    algorithms, sized for the k ≪ nb ranks TLR tiles carry. *)

val qr_thin : Mat.t -> Mat.t * Mat.t
(** [qr_thin a] for an m×k matrix with m ≥ k returns (Q, R) with Q m×k
    having orthonormal columns and R k×k upper triangular, A = Q·R
    (Householder, explicit Q accumulation). *)

val svd_jacobi : Mat.t -> Mat.t * float array * Mat.t
(** [svd_jacobi a] for an m×n matrix (intended small: recompression cores)
    returns (U, σ, V) with A = U·diag(σ)·Vᵀ, σ sorted descending, U m×n
    and V n×n column-orthonormal (thin SVD; one-sided Jacobi on columns,
    at most 60 sweeps). *)

val truncate_rank : tol:float -> float array -> int
(** Smallest r such that the discarded tail satisfies
    [√(Σ_{i≥r} σᵢ²) ≤ tol] — the Frobenius-norm truncation rule used for
    TLR tiles (returns at least 1 when σ is non-empty and tol < ‖σ‖). *)
