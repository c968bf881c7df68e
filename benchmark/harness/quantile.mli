(** Order statistics for the benchmark's timing reports.

    Quantiles are type-7 (linear interpolation between order statistics,
    {!Geomix_util.Stats.quantile}).  A tail percentile is only as good as
    the samples behind it, so the reporting rule is: quote the highest
    percentile that still has at least ten samples beyond it, and state
    the sample count. *)

val quantile : float array -> float -> float
(** [quantile xs p], [p] in [\[0, 1\]]; [nan] on an empty array. *)

val median : float array -> float

val beyond : n:int -> float -> int
(** [beyond ~n p]: how many of [n] sorted samples lie strictly past the
    type-7 position of [p], i.e. [n − 1 − ⌊p·(n − 1)⌋] ([0] when
    [n = 0]). *)

val ladder : float list
(** The percentiles a tail may be quoted at, ascending:
    p50, p75, p80, p90, p95, p99, p99.9. *)

val tail_percentile : int -> float option
(** [tail_percentile n] is the highest percentile of {!ladder} with at
    least ten of [n] samples beyond it, or [None] when even the median
    lacks them. *)
