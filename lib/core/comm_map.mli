(** Automated precision conversion (Section VI, Algorithm 2).

    For every tile that broadcasts data — diagonal tiles through POTRF,
    off-diagonal tiles through TRSM — this computes:

    - [comm_scalar]: the format the data travels in, and
    - the conversion strategy: {e STC} (sender/source task conversion: the
      producer down-converts once and ships fewer bytes) exactly when every
      successor consumes a strictly lower precision than the tile's storage
      format, otherwise {e TTC} (receiver/target task conversion: ship the
      storage format, each consumer converts).

    The scan follows Algorithm 2 of the paper: a POTRF(k,k) broadcast
    starts at FP32 (TRSM cannot execute below FP32) and is raised to FP64
    if any TRSM in column k runs FP64; a TRSM(m,k) broadcast starts at the
    tile's own input significance level (the paper's FP16 floor, for the
    FP16-class tiles it discusses) and is raised to the highest {e input}
    format among the GEMMs of row m and column m, capped at the tile's
    storage format.  Two clarifications over the paper's pseudocode, both
    recorded in DESIGN.md: the row scan covers the GEMM tiles
    n = k+1 .. m−1 (the always-FP64 diagonal SYRK consumes whatever ships,
    per Fig 4a — harmless because the floor already preserves every bit the
    norm rule found significant), and each GEMM contributes the format of
    the {e operands} it reads (an FP16_32 GEMM consumes FP16 inputs). *)

module Fpformat = Geomix_precision.Fpformat

type strategy = Stc | Ttc

type t

val compute : Precision_map.t -> t
(** Runs Algorithm 2 over the kernel-precision map — O(NT³) like the
    paper's, and embarrassingly parallel per tile. *)

val ttc : Precision_map.t -> t
(** The always-TTC baseline of refs [18]/[38]: every tile is TTC and ships
    its storage format.  Passed as [?cmap] to a factorization or
    simulation, it is the prior-art conversion strategy; its {!motion} has
    [bytes_stc = bytes_ttc] and [conv_stc = conv_ttc]. *)

val nt : t -> int

val comm_scalar : t -> int -> int -> Fpformat.scalar
(** Transfer format of broadcasts issued from tile (i, j), i ≥ j. *)

val strategy : t -> int -> int -> strategy

val equal : t -> t -> bool
(** Tile-for-tile equality of transfer formats and strategies. *)

val shipped : t -> Precision_map.t -> int -> int -> Fpformat.scalar
(** What tile (i, j)'s broadcast actually puts on the wire: the transfer
    format under STC, the storage format under TTC ([pmap] must be the map
    the [t] was computed from). *)

val override : t -> Precision_map.t -> f:(int -> int -> Fpformat.scalar option) -> t
(** [override cm pmap ~f] is [cm] with the shipped format of broadcasting
    tile (i, j) replaced by [s] (as STC: the producer converts once)
    wherever [f i j = Some s] names a format with {e strictly fewer} bytes
    per element than what [cm] already ships for that tile.  All other
    tiles — including any [Some s] that would not shrink the transfer —
    keep Algorithm 2's verdict; an override can narrow communication, never
    widen it.  This is how the range-driven autotuner
    ({!module:Geomix_autotune.Type_advisor}) injects FP8 transfers it has
    measured evidence for.
    @raise Invalid_argument on a tile-count mismatch. *)

val consumers : t -> int -> int -> int
(** Broadcast fan-out of tile (i, j) under Algorithm 1: the TRSMs of the
    column for a diagonal tile; SYRK plus row and column GEMMs for an
    off-diagonal tile.  Both equal [nt − 1 − j]; 0 means the tile never
    ships. *)

(** {1 Data-motion accounting}

    The paper's headline measurement (Figs 8–12): how many bytes the
    broadcasts of one factorization put on the wire, per conversion
    strategy, on uniform [nb²]-element tiles.  One broadcast of tile
    (i, j) costs [consumers × nb² × scalar_bytes(shipped)]. *)

type motion = {
  bytes_stc : float;  (** automated conversion: Algorithm 2's format where
                          it grants STC, storage format elsewhere *)
  bytes_ttc : float;  (** always-TTC baseline: every broadcast ships the
                          storage format *)
  bytes_fp64 : float; (** all-FP64 reference: 8 bytes per element *)
  conv_stc : int;     (** conversion kernels under automated conversion:
                          one per STC producer plus one per consumer whose
                          input format differs from the shipped form *)
  conv_ttc : int;     (** conversion kernels under always-TTC *)
  transfers : int;    (** broadcast consumer-edges (strategy-independent) *)
}

val motion : t -> Precision_map.t -> nb:int -> motion
(** [motion cm pmap ~nb] — [pmap] must be the map [cm] was computed from.
    @raise Invalid_argument on a tile-count mismatch. *)

val stc_fraction : t -> float
(** Fraction of broadcasting tiles using STC (tiles with no successors
    count as TTC). *)

val render : t -> string
(** ASCII map of communication precisions, upper-cased cells for STC
    tiles — the Fig 4b view. *)
