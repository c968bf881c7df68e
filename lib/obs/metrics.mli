(** Named-metric registry for the execution stack.

    The simulator has always had traces ({!Geomix_runtime.Trace}); this
    registry is the equivalent for the {e real} executors — [Pool] and
    [Mp_cholesky] record what actually happened (task counts, queue waits,
    run times, bytes on the wire) into one of these, and the
    snapshot/diff/export pipeline turns it into the tables, CSVs and
    [BENCH_*.json] artifacts the CI regression gate consumes.

    Three metric kinds:
    - {e counters}: monotonic integers, atomic (safe from any domain);
    - {e gauges}: instantaneous floats;
    - {e histograms}: fixed log-spaced buckets over [[lo, lo·10^decades)]
      with explicit underflow/overflow counts — zero and negative values
      land in underflow, values at or beyond the top edge in overflow.

    A name maps to exactly one metric: re-requesting an existing name
    returns the same cell ([Invalid_argument] if the kind differs), so
    independent components can share a registry without coordination. *)

type t
(** A registry.  All operations are thread-safe. *)

type counter
type gauge
type histogram

val create : unit -> t

val events : t -> Events.t
(** The registry's event stream: the one instrumentation handle of a run.
    Every producer given this registry as [?obs] narrates onto it; attach
    sinks here ({!Events.ring}, {!Events.attach_jsonl},
    {!Events.attach_stderr}).  Created with no sinks, so narration costs
    one branch per emit until a sink is attached. *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val histogram : ?lo:float -> ?decades:int -> ?per_decade:int -> t -> string -> histogram
(** Log-spaced buckets: [per_decade] (default 4) buckets per decade over
    [decades] (default 12) decades starting at [lo] (default 1e-6 — tuned
    for seconds-valued timings from microseconds up). *)

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
(** @raise Invalid_argument on a negative increment (counters are
    monotonic). *)

val counter_value : counter -> int

val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Raise the gauge to [v] if [v] is larger — peak tracking. *)

val gauge_value : gauge -> float

val observe : histogram -> float -> unit
val time : histogram -> (unit -> 'a) -> 'a
(** Span timer: run the thunk, record its wall-clock duration in seconds
    (also on exception). *)

(** {1 Snapshots} *)

type hist_snapshot = {
  lo : float;              (** lower bound of the first bucket *)
  buckets : (float * int) array; (** (upper bound, count), ascending *)
  underflow : int;
  overflow : int;
  count : int;
  sum : float;
  min_v : float;           (** +inf when [count = 0] *)
  max_v : float;           (** -inf when [count = 0] *)
}

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

type snapshot = (string * value) list
(** Sorted by metric name. *)

val snapshot : t -> snapshot

val find : snapshot -> string -> value option

val diff : snapshot -> snapshot -> snapshot
(** [diff after before]: counters and histogram populations (bucket counts,
    count, sum, under/overflow) subtract; gauges are instantaneous so the
    [after] value stands, and histogram [min_v]/[max_v] also carry the
    [after] values (the window's own extrema are not recoverable from two
    endpoint snapshots). *)

val mean : hist_snapshot -> float
(** [nan] when empty. *)

val quantile : hist_snapshot -> float -> float
(** Linear interpolation within the covering bucket; 0 when the quantile
    falls in underflow, the top edge when it falls in overflow, [nan] when
    empty.  @raise Invalid_argument outside [0, 1]. *)

(** {1 Exporters} *)

val to_table : snapshot -> string
(** Human-readable boxed table (counters/gauges one line; histograms with
    count, mean, p50, p99, max). *)

val to_csv : snapshot -> string
(** One row per metric with a fixed header — diffable and
    spreadsheet-ready. *)

val to_json : snapshot -> Jsonlite.t
val to_json_string : snapshot -> string

val of_json : Jsonlite.t -> (snapshot, string) result
(** Inverse of {!to_json} — reconstructs a snapshot from a stats reply
    (histogram [min]/[max] encode as [null] when empty and decode back to
    the canonical ±inf extrema).  Used by [geomix top] to compute
    quantiles client-side. *)
