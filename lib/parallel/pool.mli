(** A fixed pool of worker domains with a shared run queue.

    This is the execution engine under the task runtime: PaRSEC's role of
    "execute a task as soon as its dependencies are satisfied on some
    computational resource" maps to submitting thunks here.  With
    [num_workers = 0] (the default on a single-core machine) the pool
    degrades to deferred serial execution: {!join_job} runs the queue on
    the calling thread in submission order, without spawning domains.

    {b One completion scope: the job.}  Every thunk is submitted under a
    {!job}, and a job is what callers wait on ({!join_job}).  Independent
    computations therefore share one pool without sharing fate: a request
    server gives each request its own job, and {!Dag_exec.run} makes a
    private one per run when the caller passes none.

    {b Failure semantics (fail fast, per job).}  The first exception
    escaping a thunk is stored in its job, with its backtrace, and every
    thunk of that job still queued is {e skipped} at dequeue instead of
    run: a failing computation stops scheduling work instead of running
    the rest of its batch against a doomed result.  Thunks already
    executing are not interrupted (OCaml has no safe asynchronous
    cancellation); their errors, if any, are dropped in favour of the
    first.  {!join_job} re-raises the job's first error with its original
    backtrace.  Thunks of other jobs are neither skipped nor observed.

    {b Cost.}  A successful thunk takes three acquisitions of the pool
    mutex: the enqueue, the dequeue (which also checks the job's error
    slot) and the settle (which records an error and retires the thunk
    from its job).

    Passing [?obs] instruments the pool with real measurements:
    per-worker executed-task counters ([pool.worker<i>.tasks]), queue-wait
    and run-time histograms in seconds ([pool.queue_wait_s],
    [pool.run_s]), an executed-task counter ([pool.tasks]), an idle-wait
    counter ([pool.idle_waits] — one increment per condition-variable
    sleep), a counter of thunks skipped because their job had failed
    ([pool.cancelled]), a peak-queue-length gauge ([pool.queue_peak]) and
    a worker-count gauge ([pool.workers]).  An uninstrumented pool takes
    no clock readings at all.

    The same registry's event stream ({!Geomix_obs.Metrics.events})
    narrates the pool's lifecycle (component ["pool"]): [create]/[shutdown]
    at Info, per-worker [worker_start]/[worker_stop] at Debug, a job's
    first [error] at Error and, once per failed job at its {!join_job},
    the number of its thunks skipped ([cancelled]) at Warn. *)

type t

val create :
  ?obs:Geomix_obs.Metrics.t -> ?num_workers:int -> unit -> t
(** [create ()] sizes the pool to [Domain.recommended_domain_count - 1]
    workers (never negative). *)

val num_workers : t -> int

val self_index : t -> int
(** Dense index of the calling domain among this pool's workers — the
    resource id under which observability hooks record the current task.
    0 on the caller domain of a serial pool (and on any domain that is not
    a pool worker). *)

val shutdown : t -> unit
(** Run whatever is still queued, stop and join the workers.
    Idempotent.  Errors belong to jobs, so this never raises. *)

val with_pool :
  ?obs:Geomix_obs.Metrics.t -> ?num_workers:int -> (t -> 'a) -> 'a
(** Scoped creation: shuts the pool down on exit or exception. *)

type job

val new_job : ?span:Geomix_obs.Span.t -> t -> job
(** A fresh, empty completion scope.  Cheap; one per request or DAG run.
    With [?span], every item run under the job accumulates its queue-wait
    and run time into the span ({!Geomix_obs.Span.note_exec}) — the pool
    then takes the same two clock readings it takes when instrumented,
    shared between the registry histograms and the span. *)

val job_span : job -> Geomix_obs.Span.t option
(** The trace context the job was created with — executors propagate it
    to their own per-task hooks. *)

val submit_job : t -> job -> (unit -> unit) -> unit
(** Enqueue a thunk under the job.  Thunks may submit further thunks to
    the same job.  A job is {e sequentially} reusable: once {!join_job}
    has returned, the pending count is back to zero and the error slot is
    clear, so the same job may scope a further wave of thunks — how the
    server chunks Monte-Carlo fan-out under brown-out
    ({!Geomix_serve.Breaker}).  Submitting while another thread is still
    inside {!join_job} for the same job is not allowed. *)

val join_job : t -> job -> unit
(** Block until every thunk submitted under this job has finished or been
    skipped, then re-raise the job's first error, if any, with its
    original backtrace.  On a serial pool the caller drains the queue
    itself (items of other jobs encountered on the way are executed too).
    Completion or failure of {e other} jobs' thunks is neither awaited nor
    observed. *)

val job_skipped : job -> int
(** Thunks of this job skipped because the job had already failed, over
    the job's lifetime.  Stable once {!join_job} has returned. *)
