(** Bounded-attempt supervision with exponential backoff.

    A {!policy} says how many times a task body may run, which exceptions
    are worth re-executing for, how long to wait between attempts, and on
    which clock.  The clock is an injected [sleep] function so the same
    policy runs against the real wall clock ([Unix.sleepf]) or a virtual
    one ({!virtual_clock}) that merely accumulates the simulated delay —
    tests of backoff arithmetic never actually sleep.

    Retrying a task is only sound when re-execution is idempotent.  For
    tasks that mutate data in place (every Cholesky update kernel), the
    caller provides a [restore] thunk capturing the task's written
    footprint before the first attempt; {!run} invokes it before every
    re-execution, which is what makes crash-after-write recovery exact —
    see {!Geomix_parallel.Dag_exec.run}. *)

type policy = {
  max_attempts : int;       (** total attempts, [>= 1]; [1] = no retry *)
  base_delay : float;       (** seconds before the first re-execution *)
  factor : float;           (** multiplier per further attempt *)
  max_delay : float;        (** backoff cap, seconds — holds even after
                                jitter *)
  jitter : float;           (** decorrelation fraction in [0, 1]: each
                                delay is scaled by a seeded draw from
                                [1 − jitter, 1]; [0] = deterministic *)
  sleep : float -> unit;    (** the clock backoff runs on *)
  retryable : exn -> bool;  (** exceptions worth re-executing for *)
}

val default : policy
(** 3 attempts, 1 ms base delay doubling to a 100 ms cap on the real clock
    ([Unix.sleepf]), jitter [0.5]; every exception retryable.  The jitter
    decorrelates contemporaries: when one fault (a stalled node, a burst
    of transients) fells many tasks at once, identical backoff would march
    them back in lockstep and re-collide them on the same resource; the
    per-task salt spreads the herd across half the backoff window. *)

val immediate : ?max_attempts:int -> unit -> policy
(** [default] with zero delays (no sleeping at all), zero jitter and
    [max_attempts] (default 3) — the policy test suites and chaos sweeps
    use. *)

val virtual_clock : unit -> (float -> unit) * (unit -> float)
(** [let sleep, elapsed = virtual_clock ()]: a simulated clock — [sleep d]
    adds [d] to an accumulator, [elapsed ()] reads it. *)

val delay_for : ?salt:int -> policy -> attempt:int -> float
(** Backoff after failed attempt [n] (1-based):
    [min max_delay (base_delay · factor^(n−1) · s)] where the jitter scale
    [s] is a pure hash of [(salt, n)] uniform in [1 − jitter, 1].  Without
    [?salt] (or with [jitter = 0]) the delay is the exact deterministic
    schedule; the cap applies after jitter, so [max_delay] is a hard
    ceiling either way. *)

val run :
  ?salt:int ->
  ?on_retry:(attempt:int -> exn -> unit) ->
  ?restore:(unit -> unit) ->
  policy ->
  (attempt:int -> 'a) ->
  'a
(** [run policy f] calls [f ~attempt:1]; while the attempt raises a
    [retryable] exception and attempts remain, it reports the failure to
    [on_retry], sleeps the backoff (jittered by [?salt] — executors pass a
    per-task identity so concurrent casualties decorrelate), runs
    [restore] (when given) to roll the written footprint back, and
    re-executes with the next attempt number.  A non-retryable exception,
    or the failure of the final attempt, propagates with its original
    backtrace.

    @raise Invalid_argument when [max_attempts < 1] or [jitter] is outside
    [0, 1]. *)
