(** Prometheus text exposition of a {!Metrics} snapshot, plus the
    matching parser/linter the CI gate uses and a size-rotating JSONL
    telemetry snapshotter.

    The exposition follows the Prometheus text format (version 0.0.4):
    one [# TYPE] line per metric family, counters and gauges as single
    samples, histograms as cumulative [le]-labelled buckets ending in
    [+Inf] plus [_sum]/[_count].  The registry's separate underflow cell
    folds into every cumulative bucket, so the [+Inf] bucket always
    equals the total observation count.  Metric names are sanitized
    (every character outside [[a-zA-Z0-9_:]] becomes [_]) and prefixed
    with the namespace ["geomix"]: [serve.latency_s] exposes as
    [geomix_serve_latency_s]. *)

val to_prometheus : Metrics.snapshot -> string
(** Render the whole snapshot. *)

(** {1 Parsing and linting} *)

type sample = { name : string; labels : (string * string) list; value : float }

val parse : string -> (sample list, string) result
(** Parse exposition text back into samples, skipping comments and blank
    lines; [Error] on the first malformed sample line.  Values [+Inf],
    [-Inf] and [NaN] parse to the corresponding floats. *)

val find : sample list -> string -> sample option
(** First sample with this exact name (label-blind — bucket lookups go
    through labels on the result). *)

val lint : string -> string list
(** Format diagnostics, empty when the text is well-formed: every sample
    line parses, every family has a [# TYPE] declaration, histogram
    buckets are cumulative with ascending [le] edges, a [+Inf] bucket
    equal to [_count], and a [_sum]. *)

(** {1 JSONL snapshotter}

    Appends one compact JSON line [{"t": <unix time>, "metrics": {...}}]
    per {!snap} call to [path]; when the file exceeds [max_bytes] it
    rotates to [path.1] … [path.keep] (oldest dropped), so a long-running
    service keeps a bounded telemetry history on disk.  Rotation is
    crash-consistent: the retiring file is fsynced before the atomic
    rename chain shifts the generations and the directory entry is
    fsynced after, so a crash mid-rotation never loses or tears an
    archived generation ({!Geomix_util.Durable} idiom). *)

type snapshotter

val snapshotter : ?max_bytes:int -> ?keep:int -> path:string -> unit -> snapshotter
(** Open (append) the snapshot file.  [max_bytes] defaults to 1 MiB,
    [keep] to 3 rotated files.  @raise Invalid_argument on a non-positive
    size or [keep < 1]. *)

val snap : snapshotter -> Metrics.snapshot -> unit
(** Append one snapshot line (flushed), rotating first the write that
    pushed the file over the limit lands in a fresh file next call.
    Thread-safe. *)

val close : snapshotter -> unit
