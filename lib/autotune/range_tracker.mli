(** Stage 1 of the range-driven autotuner: pilot instrumentation.

    A tracker records, per lower-triangle tile, the distribution of the
    values the tile actually holds during a pilot factorization — minimum
    and maximum nonzero magnitude, a histogram over unbiased binary
    exponents, zero and non-finite counts — via the [?observe] hook of
    {!Geomix_core.Mp_cholesky.factorize}.  The mirror of the [scale_tracker] /
    instrumented-type pass of the mixed-precision-SDK pipeline
    (SNIPPETS.md #3): observation is read-only and the pilot run's tiles
    stay bit-identical.

    Per-tile accumulators are independent, so concurrent observation of
    {e distinct} tiles from pool workers is race-free (writes to the same
    tile are serialized by the factorization DAG). *)

module Fpformat = Geomix_precision.Fpformat

type t

val create : nt:int -> t
(** Fresh tracker for an [nt × nt] lower-triangular tile grid. *)

val nt : t -> int

(** {1 Observation} *)

val observe : t -> i:int -> j:int -> Geomix_linalg.Mat.t -> unit
(** Fold every entry of a working tile into tile (i, j)'s statistics. *)

val observe_value : t -> i:int -> j:int -> float -> unit

val observe_tiled : t -> Geomix_tile.Tiled.t -> unit
(** {!observe} every lower-triangle tile, additionally accumulating each
    tile's Frobenius mass — use for the {e input} matrix before the pilot
    runs, so the advisor can evaluate the Higham–Mary ratio
    ‖A_ij‖·NT/‖A‖ from tracker state alone.
    @raise Invalid_argument on a tile-count mismatch. *)

val hook : t -> i:int -> j:int -> Geomix_linalg.Mat.t -> unit
(** The tracker as an [?observe] callback for
    {!Geomix_core.Mp_cholesky.factorize}. *)

(** {1 Recorded ranges} *)

type stats = {
  observations : int;  (** total values folded into this tile *)
  zeros : int;
  nonfinite : int;     (** NaN or ±inf observations *)
  min_mag : float;     (** smallest nonzero finite magnitude; [+inf] if none *)
  max_mag : float;     (** largest finite magnitude; [0.] if none *)
  exponents : (int * int) list;
      (** histogram: [(eu, count)] with 2{^eu} ≤ |x| < 2{^eu+1}, ascending
          [eu], only nonempty buckets.  Invariant:
          Σcounts + zeros + nonfinite = observations. *)
}

val stats : t -> int -> int -> stats

val observations : t -> int
(** Total observations across all tiles. *)

val input_tile_norm : t -> int -> int -> float
(** ‖A_ij‖_F of the mass recorded through {!observe_tiled}. *)

val input_norm : t -> float
(** ‖A‖_F over all {!observe_tiled} mass. *)

(** {1 Format queries} *)

val underflows : stats -> Fpformat.scalar -> int
(** Observations that would {e certainly} flush to zero when rounded to the
    format (whole exponent buckets at or below half the smallest
    subnormal — a conservative count, boundary buckets are not split). *)

val overflows : stats -> Fpformat.scalar -> int
(** Observations that would certainly overflow (saturate, for FP8) — whole
    buckets beyond the largest finite value. *)

val fits : ?margin:float -> stats -> Fpformat.scalar -> bool
(** No observed value leaves the format's finite range: nothing non-finite,
    [max_mag] at most the largest finite value, and every nonzero magnitude
    at least [margin] (default 1) times the smallest subnormal — so
    rounding neither saturates nor flushes, which also keeps the
    conversion-tolerant integrity fingerprints
    ({!Geomix_integrity.Checksum.matches_scalar}) valid for the format. *)
