(** Low-rank tile representation [A ≈ U·Vᵀ] with [U : m×k], [V : n×k].

    This is the building block of the tile low-rank (TLR) extension the
    paper names as future work ("combining the strengths of mixed
    precisions with tile low-rank computations", Section VIII; refs [16],
    [17]).  Compression uses fully-pivoted adaptive cross approximation
    (ACA), which is exact after min(m,n) steps and converges quickly on
    the smooth covariance blocks TLR targets; recompression goes through
    thin QR of both factors and an SVD of the small core. *)

open Geomix_linalg

type t = { u : Mat.t; v : Mat.t }
(** Invariant: [Mat.cols u = Mat.cols v] (the rank). *)

val rank : t -> int
val rows : t -> int
val cols : t -> int

val to_dense : t -> Mat.t
(** [U·Vᵀ]. *)

val of_dense : tol:float -> Mat.t -> t option
(** Fully-pivoted ACA to absolute Frobenius tolerance [tol]; [None] when
    the required rank exceeds [min(m,n)/2] — the tile is not worth
    compressing (the caller keeps it dense). *)

val recompress : tol:float -> t -> t
(** QR–SVD recompression to the tolerance (never increases the rank). *)

val add : ?scale:float -> t -> t -> t
(** [add a b = a + scale·b] (default 1) as a rank-(k₁+k₂) pair — callers
    usually {!recompress} the result. *)

val matvec : t -> float array -> float array
(** [U·(Vᵀx)] in O((m+n)·k). *)

val matvec_trans : t -> float array -> float array
(** [V·(Uᵀx)]. *)

val memory_floats : t -> int
(** Floats stored: [(m+n)·k]; compare against [m·n] dense. *)

val round_factors : Geomix_precision.Fpformat.scalar -> t -> t
(** Mixed-precision TLR: round both factors to a storage scalar (the
    combination the paper's future work proposes). *)
