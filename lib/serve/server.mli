(** The model service: a long-lived request server multiplexing
    likelihood, prediction and Monte-Carlo work onto one shared domain
    pool.

    This is the serving half of the paper's batched-MLE workload: an
    optimizer (or many) evaluates the Gaussian log-likelihood for a stream
    of parameter points over a fixed problem shape, so the expensive
    shape-level pre-work — precision map, Algorithm 2 communication map,
    static DAG — is memoized in a {!Cache} and every evaluation reuses
    it.

    {b Concurrency.}  Each admitted request factorizes under its own
    {!Geomix_parallel.Pool.job}, so concurrent requests share the pool's
    workers without sharing completion or failure ({!Geomix_parallel.Pool}
    job semantics).  Admission is a bounded priority queue in front of
    [max_inflight] execution slots: strict priority rank, FIFO within a
    class, and a [Saturated] (429-style) rejection when both the slots and
    the queue are full.

    {b Deadlines.}  The clock is injected ([?now]), and deadlines are
    evaluated at admission entry, at slot grant and between Monte-Carlo
    replicates — never inside a timed wait — so expiry behaviour is
    deterministic under the virtual clock
    ({!Geomix_fault.Retry.virtual_clock}) the tests drive.

    {b Resilience.}  Every factorizing request runs through
    {!Geomix_core.Mp_cholesky.factorize_robust} under the server's
    configured stack: a seeded fault plan ([?faults]) injects, bounded
    retry ([?retry]) re-executes transient casualties from pre-attempt
    snapshots, a {e per-request} integrity guard ([?integrity], snapshots
    on) quarantines and repairs silent data corruption, and pivot
    failures escalate precision bands to FP64 instead of erroring.  The
    reply's {!Protocol.status} is the authoritative account: [Escalated]
    degradation invalidates the cached artifact (a warm hit never
    launders a degraded precision map), and a [Corrupt_recovered] reply
    is bitwise-identical to the fault-free run.

    {b Overload brown-out.}  A {!Breaker} watches queue depth and
    deadline-miss rate over sliding windows; while tripped the server
    sheds [Low]-priority requests at admission ([Saturated]) and caps
    Monte-Carlo replicate fan-out, recovering hysteretically.

    {b Graceful lifecycle.}  {!request_drain} stops admission and lets
    queued plus in-flight work finish until a deadline on the injected
    clock; {!drain_status} is a pure, non-blocking probe of that state
    machine, and {!install_drain_signals} wires SIGTERM/SIGINT so one
    signal drains and a second forces an immediate stop ({!outcome}).

    {b Telemetry.}  With [?obs]: [serve.requests], [serve.rejected],
    [serve.deadline_expired], [serve.errors], [serve.mc_replicates],
    [serve.recovered], [serve.escalated], [serve.indefinite],
    [serve.shed], [serve.brownout_trips] counters; [serve.inflight],
    [serve.queue_depth], [serve.queue_peak], [serve.brownout] gauges; a
    [serve.latency_s] histogram; and the cache's [serve.cache.*]
    counters.  The registry's event stream
    ({!Geomix_obs.Metrics.events}) narrates the request lifecycle on
    component ["serve"]; without [?obs] the server creates its own
    registry, reachable through {!metrics}.

    {b Per-request tracing.}  With [trace_sample > 0], a sampled request
    gets a {!Geomix_obs.Span} that every instrumented layer below —
    cache lookup events, pool job timing, the factorization's RAW-edge
    byte accounting, supervised retries — credits its activity to, and
    the terminal reply carries a {!Protocol.footer}: bytes moved as
    shipped vs the FP64-equivalent baseline (split by transfer
    precision), modeled energy and duration-weighted critical path from
    a per-request profile, queue/busy time, SDC detect/recover counts
    and the reply status.  Sampling is a deterministic function of the
    request id, so the same id traces identically on every replica; at
    [trace_sample = 1.0] the footers' summed byte counts equal the
    registry's [cholesky.shipped_bytes] aggregate exactly.  The [Stats]
    request ({!Protocol.payload}) and the [?stats_path] listener of
    {!serve_unix} are the matching pull surfaces. *)

type t

val create :
  ?obs:Geomix_obs.Metrics.t ->
  ?now:(unit -> float) ->
  ?max_inflight:int ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  ?faults:Geomix_fault.Fault.t ->
  ?retry:Geomix_fault.Retry.policy ->
  ?integrity:bool ->
  ?drain_deadline_s:float ->
  ?trace_sample:float ->
  ?breaker_config:Breaker.config ->
  pool:Geomix_parallel.Pool.t ->
  unit ->
  t
(** Defaults: wall clock, 4 in-flight slots, 16 queue entries, cache
    capacity 32; no fault plan, no retry policy, integrity guards off, a
    5 s drain deadline, [trace_sample = 0] (per-request tracing off) and
    {!Breaker.default_config}.  Admission rejects as [Bad_request] a
    matrix order or prediction size [n_new] above 4096, a Monte-Carlo
    batch above 1024 replicates, and a request of more than 128 tiles
    ([⌈n/nb⌉ > 128]).
    @raise Invalid_argument when [max_inflight < 1], [queue_capacity < 0],
    [drain_deadline_s] is negative or non-finite, [trace_sample] is
    outside [0, 1], or the breaker config is invalid. *)

val cache : t -> Cache.t
val metrics : t -> Geomix_obs.Metrics.t
val pool : t -> Geomix_parallel.Pool.t
val breaker : t -> Breaker.t

val served : t -> int
(** Requests completed through the socket front end. *)

val handle :
  t ->
  ?on_progress:(completed:int -> total:int -> unit) ->
  Protocol.request ->
  Protocol.reply
(** Process one request end to end: validate, admit (blocking while
    queued), execute on the pool, release.  Never raises on request
    failure — validation, saturation, deadline expiry and internal errors
    all come back as {!Protocol.Error_r}.  [on_progress] fires once per
    completed Monte-Carlo replicate, possibly concurrently from pool
    worker domains (completion counts may arrive out of order; track the
    maximum).  Thread-safe: the socket front end calls this from one
    thread per connection. *)

val handle_traced :
  t ->
  ?on_progress:(completed:int -> total:int -> unit) ->
  Protocol.request ->
  Protocol.reply * Protocol.footer option
(** {!handle} plus the telemetry footer of a sampled request ([None] for
    an unsampled request, for pre-admission replies — [Ping], [Health],
    [Stats], [Shutdown] — and for requests rejected before execution).
    The socket front end uses this and attaches the footer to the
    terminal reply frame. *)

val build_artifact : Cache.key -> Cache.artifact
(** The memoized pre-work, exposed for tests: a pure function of the
    shape key (sites, precision map, communication map, static DAG). *)

(** {1 Admission control}

    The raw admission primitives, exposed so tests can saturate the
    server deterministically without timing races.  [handle] uses them
    internally; production callers never need them. *)

val admit : t -> rank:int -> [ `Admitted | `Saturated ]
(** Take an execution slot, blocking in the priority queue while the
    server is busy; [`Saturated] when slots and queue are both full.
    Every [`Admitted] must be paired with a {!release}. *)

val release : t -> unit

val inflight : t -> int
val queued : t -> int

(** {1 Graceful lifecycle}

    The drain machinery is a pure state machine on the injected clock —
    nothing here blocks, so every path is testable under
    {!Geomix_fault.Retry.virtual_clock}. *)

val request_drain : t -> bool
(** Begin draining: admission starts refusing new work ([Saturated],
    message ["server draining…"]) while queued and in-flight requests
    keep running until [now + drain_deadline_s].  Idempotent — [true]
    only for the call that actually started the drain. *)

val force_stop : t -> unit
(** Terminal: the lifecycle moves to stopped immediately.  In-flight
    pool work is not interrupted (OCaml has no safe asynchronous
    cancellation); the socket front end stops accepting and its caller —
    the CLI — exits the process, which is the cancellation. *)

val draining : t -> bool
(** [true] once {!request_drain} or {!force_stop} has been called. *)

val drain_status :
  t ->
  [ `Running  (** no drain requested *)
  | `Draining of float  (** seconds left before the deadline *)
  | `Drained  (** drain requested and no work queued or in flight *)
  | `Expired  (** deadline passed with work still in flight *)
  | `Stopped  (** {!force_stop} was called *) ]
(** A pure, non-blocking probe of the drain state machine against the
    injected clock.  [`Drained] wins over [`Expired] when the last
    request finished after the deadline but before the probe. *)

val health : t -> Protocol.health
(** The readiness snapshot a [Health] request returns, answered before
    admission — probes work while saturated or draining. *)

(** {1 Unix-domain-socket front end} *)

type outcome =
  | Served  (** a [Shutdown] request or [max_requests] ended the run *)
  | Drained  (** one signal; every queued and in-flight request finished *)
  | Drain_expired
      (** one signal; the drain deadline passed with work in flight *)
  | Forced  (** a second signal forced an immediate stop *)

val outcome_name : outcome -> string

val install_drain_signals : unit -> unit
(** Install the SIGTERM/SIGINT handler that feeds {!serve_unix}'s drain
    policy: the first signal begins a drain, a second forces an immediate
    stop.  Idempotent — concurrent and repeated calls install exactly
    once, so a signal arriving while a handler is being (re)installed is
    never lost to a handler race. *)

val notify_signal : unit -> unit
(** The handler body: record one delivered signal.  Exposed so tests can
    drive the drain and second-signal paths without raw signals. *)

val serve_unix :
  t ->
  path:string ->
  ?max_requests:int ->
  ?stats_path:string ->
  ?telemetry:Geomix_obs.Expo.snapshotter ->
  unit ->
  outcome
(** Bind [path] (an existing socket file is replaced), accept one thread
    per connection, and serve length-prefixed {!Protocol} frames until a
    [Shutdown] request arrives, [max_requests] requests have been
    answered, or a signal recorded by {!notify_signal} ends the run (the
    pending signal count is cleared on entry).  Requests on one
    connection are handled sequentially; concurrency comes from
    concurrent connections.  SIGPIPE is ignored process-wide on entry,
    so a client that disconnects mid-stream costs only its own dropped
    frames, never the server.  Shutdown closes the read side of every
    open connection (idle clients see EOF; in-flight replies still
    flush).  On [Served] and [Drained] every connection thread has been
    joined; on [Drain_expired] and [Forced] the run returns {e without}
    joining — in-flight factorizations cannot be interrupted and the
    caller is expected to exit the process.  The socket file is removed
    on the way out.

    [?stats_path] binds a {e second} Unix listener that answers every
    connection with one full Prometheus text exposition
    ({!Geomix_obs.Expo.to_prometheus}) of the server's registry and
    closes — a scrape endpoint independent of the framed protocol and
    of admission, so it keeps answering while the server is saturated
    or draining.  [?telemetry] appends one compact registry-snapshot
    JSON line per second (on the injected clock) to the rolling
    snapshotter, plus a terminal line when the run ends; rotation is the
    snapshotter's ({!Geomix_obs.Expo.snapshotter}).  Both surfaces are removed/closed
    by their owners — the stats socket file on the way out, the
    snapshotter by its creator. *)
