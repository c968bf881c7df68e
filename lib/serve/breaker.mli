(** Overload brown-out breaker: turns saturation into graceful degradation.

    The server feeds the breaker two sliding-window signals — the admission
    queue's depth (as a fraction of its capacity, one sample per request)
    and the deadline-miss outcome of every completed request.  When either
    window mean crosses its high-water mark the breaker {e trips} ([Open]):
    the server sheds [Low]-priority requests at admission with a
    [Saturated] reply instead of queueing them, and caps the replicate
    fan-out of Monte-Carlo batches ({!mc_chunk}) so one big batch cannot
    monopolize the pool while it is already behind.

    Recovery is hysteretic: the breaker closes only after [hold_s] seconds
    on the injected clock {e and} both window means have fallen to their
    (strictly lower) low-water marks, and the windows are cleared on
    recovery so stale saturation samples cannot immediately re-trip it.
    All decisions run on the injected [now] clock — the whole policy is
    deterministic under {!Geomix_fault.Retry.virtual_clock}.

    Thread-safe: observations arrive concurrently from handler threads. *)

type config = {
  window : int;        (** sliding-window capacity, samples *)
  min_samples : int;   (** samples required in a window before it can trip *)
  queue_high : float;  (** mean queue-depth fraction that trips *)
  queue_low : float;   (** mean the queue must fall to before recovery *)
  miss_high : float;   (** deadline-miss rate that trips *)
  miss_low : float;    (** miss rate required for recovery *)
  hold_s : float;      (** minimum seconds Open before recovery is allowed *)
  mc_chunk : int;      (** Monte-Carlo fan-out cap while Open *)
}

val default_config : config
(** window 32, min_samples 8, queue 0.75/0.25, miss 0.5/0.1, hold 1 s,
    mc_chunk 4. *)

type state = Closed | Open

type t

val create :
  ?obs:Geomix_obs.Metrics.t ->
  ?config:config ->
  now:(unit -> float) ->
  unit ->
  t
(** [?obs] registers [serve.brownout_trips] (counter), [serve.brownout]
    (gauge, 1 while Open) and the sliding-window signal gauges
    [serve.brownout_queue_mean] / [serve.brownout_miss_mean] (the exact
    means the trip decisions are made from, refreshed on every
    observation) and narrates [brownout_trip] / [brownout_recover] at
    Warn on component ["serve"] of the registry's event stream.
    @raise Invalid_argument on a non-positive window, [min_samples] or
    [mc_chunk], a low-water mark above its high-water mark, or a negative
    [hold_s]. *)

val config : t -> config

val note_queue : t -> frac:float -> unit
(** Record one admission-time queue-depth sample (clamped to [0, 1]). *)

val note_outcome : t -> missed:bool -> unit
(** Record one request completion: [missed = true] when it expired. *)

val state : t -> state
(** Current state; re-evaluates time-based recovery, so a quiet window
    plus an elapsed hold reads [Closed] without a new observation. *)

val tripped : t -> bool
(** [state t = Open]. *)

val trips : t -> int
(** Closed→Open transitions over the breaker's lifetime. *)

val mc_chunk : t -> replicates:int -> int
(** The replicate fan-out to use for a batch of [replicates]: the batch
    size when Closed, [min replicates config.mc_chunk] when Open. *)
