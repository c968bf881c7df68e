(** In-memory span recorder for the traced run.

    A span is one call into a layer's public function, timed from the
    benchmark's side of the call: name, wall-clock start and end, the span
    that caused it and the operation it belongs to.  Spans stay in memory
    and are exported once, at exit, as Chrome trace JSON through
    {!Geomix_runtime.Trace.to_chrome_json}.

    A disabled recorder takes no clock readings: {!span} is a plain call
    of its thunk, which is how the measured (untraced) run executes the
    very same code path. *)

type t

val create : enabled:bool -> t
val enabled : t -> bool

val span : t -> ?lane:int -> ?parent:int -> op:int -> string -> (int -> 'a) -> 'a
(** [span t ~op name f] runs [f id] inside a span and records it when the
    thunk returns or raises: its name, start and end, [parent] ([-1] for a
    root), [op] and [lane] (the client or thread that made the call,
    default 0).  [id] is the new span's identifier, to parent child spans
    under it ([-1] when disabled).  Thread-safe. *)

val durations : t -> string -> float array
(** Durations in seconds of every recorded span of that name. *)

val total : t -> string -> float

val to_chrome_json : t -> string
(** One Chrome complete event per span: the lane is the thread row, the
    tag carries ["op=<op> id=<id> parent=<parent>"]. *)
