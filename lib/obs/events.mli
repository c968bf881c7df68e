(** Unified telemetry stream for the execution stack.

    {!Geomix_obs.Metrics} answers "how much" (counters, histograms);
    this answers "what happened, when": a structured, leveled event log
    with per-stream monotonic timestamps and typed {!Jsonlite} payloads —
    the repo's analogue of PaRSEC's PINS instrumentation stream, which
    the paper's evaluation (Figs 8–10) is narrated from.

    Every {!Metrics} registry owns one stream ({!Metrics.events}), so the
    run's one instrumentation handle is its registry.  Producers that take
    [?obs] — [Pool], [Mp_cholesky], [Fault], [Guard], and the request
    server's [Server], [Cache] and [Breaker] — emit onto that registry's
    stream; the stream fans each event out to its subscribed sinks:

    - a {!ring} buffer (bounded in-memory history, for tests and reports);
    - a JSONL sink ({!attach_jsonl}) — one compact JSON object per line,
      machine-parseable back through {!of_jsonl};
    - a pretty stderr sink ({!attach_stderr}), the one the [GEOMIX_LOG]
      environment variable and the CLI's [--verbose] flag control.

    Levels are filtered by the sinks, not by the stream.

    Cost model: a producer given no registry pays nothing; an emit on a
    stream with no sinks is one branch and returns without taking the
    lock, so a stream on every registry costs nothing until a sink is
    attached.  All operations are thread-safe ({!emit} is called from
    worker domains). *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

type event = {
  seq : int;  (** per-stream sequence number, from 0 *)
  time : float;
      (** seconds since stream creation; non-decreasing across the stream
          even if the wall clock steps backwards *)
  level : level;
  component : string;  (** producer, e.g. ["pool"], ["fault"], ["cholesky"] *)
  name : string;  (** event kind within the component, e.g. ["task_end"] *)
  fields : (string * Jsonlite.t) list;  (** typed payload *)
}

type t

val create : unit -> t
(** A stream with no sinks. *)

val enabled : t -> level -> bool
(** Whether an emit at this level would be handed to a sink — guard for
    call sites that build expensive payloads.  Sinks filter levels
    themselves, so the answer is the same at every level: whether any
    sink is attached. *)

val emit :
  ?level:level -> t -> component:string -> name:string ->
  (string * Jsonlite.t) list -> unit
(** Emit one event (default level [Info]) to every sink.  Discarded — with
    no payload evaluation beyond the argument list — when no sink is
    attached. *)

(** {1 Sinks} *)

val on_event : t -> (event -> unit) -> unit
(** Subscribe a raw sink; called in emission order under the stream's
    lock, so sinks must not emit back into the same stream. *)

type ring

val ring : ?capacity:int -> t -> ring
(** Subscribe a bounded in-memory buffer keeping the most recent
    [capacity] (default 4096) events. *)

val ring_events : ring -> event list
(** Buffered events, oldest first. *)

val attach_jsonl : t -> out_channel -> unit
(** Stream every event as one compact JSON line (flushed per event, so the
    log survives a crash and tails cleanly). *)

val attach_stderr : ?min_level:level -> t -> unit
(** Human-readable one-line-per-event sink on stderr, filtered to
    [min_level] (default [Info]) and above. *)

(** {1 Environment wiring}

    [GEOMIX_LOG=debug|info|warn|error] selects the stderr sink's level for
    the CLI; unset (or unparseable) means no logging. *)

val env_level : unit -> level option
(** Parse [GEOMIX_LOG]. *)

(** {1 Serialisation} *)

val to_json : event -> Jsonlite.t
val to_jsonl : event -> string
(** One compact JSON line, no trailing newline. *)

val of_json : Jsonlite.t -> (event, string) result
val of_jsonl : string -> (event, string) result

val read_jsonl : in_channel -> event list * int
(** Read a whole JSONL stream back, in order, skipping rather than failing
    on lines that do not parse as events — a log truncated mid-line by a
    crash, or interleaved foreign output, still yields every intact event.
    Blank lines are ignored silently; the second component counts the
    malformed lines that were skipped. *)

(** {1 Payload helpers} *)

val fint : int -> Jsonlite.t
val fnum : float -> Jsonlite.t
val fstr : string -> Jsonlite.t
