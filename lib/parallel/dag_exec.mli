(** Dependency-driven execution of a static task DAG.

    This is the heart of the PaRSEC-style asynchronous model: a task becomes
    runnable the instant its last predecessor completes, with no global
    barriers between the "iterations" of Algorithm 1.  Tasks are identified
    by dense integer ids; the graph is given by a successor function and the
    in-degree of every task.

    {b Supervision.}  [run] optionally wraps every task body in a recovery
    envelope: a seeded fault plan ([?faults], site ["exec"]) injects
    transient exceptions, crash-after-write failures and stalls per
    attempt, and a retry policy ([?retry]) re-executes a failed attempt up
    to its bound with backoff.  Re-execution of an in-place task is only
    sound if its written data is rolled back first, so [?capture] lets the
    caller snapshot a task's written footprint: [capture id] is called
    once, before the task's first attempt, and must return a thunk that
    restores the captured state; the envelope invokes that thunk before
    every re-execution.  When the retry budget is exhausted (or the
    exception is not [retryable]) the failure propagates: the run's job
    skips its queued tasks, no successor of the failed task is launched,
    and the exception re-raises from [run] with its original backtrace. *)

val run :
  ?on_task:(id:int -> worker:int -> start:float -> stop:float -> unit) ->
  ?task_name:(int -> string) ->
  ?faults:Geomix_fault.Fault.t ->
  ?retry:Geomix_fault.Retry.policy ->
  ?capture:(int -> unit -> unit) ->
  ?on_retry:(id:int -> attempt:int -> exn -> unit) ->
  ?job:Pool.job ->
  pool:Pool.t ->
  num_tasks:int ->
  in_degree:int array ->
  successors:(int -> int list) ->
  execute:(int -> unit) ->
  unit ->
  unit
(** [run ~pool ~num_tasks ~in_degree ~successors ~execute ()] executes every
    task exactly once (exactly one {e successful} attempt under [?retry]),
    never running a task before all of its predecessors have finished.  An
    exception raised by [execute] — after supervision, when enabled —
    aborts scheduling of further ready tasks and is re-raised.

    [?task_name] labels tasks for the fault plan's name-based decisions
    (default: the task id as a string).  [?capture] snapshots a task's
    written footprint for sound re-execution (see above); it is only
    invoked when a retry policy with [max_attempts > 1] is present.
    [?on_retry] observes every re-execution decision (for metrics).

    [?on_task] is the real-execution hook: called once per task with the
    worker index that ran it ({!Pool.self_index}) and wall-clock
    start/stop in seconds relative to the run's origin.  Called from
    worker domains concurrently; also fires when the task body raises
    (the span then covers up to the raise — under retry it covers every
    attempt and backoff).  Without it the run reads no clock.

    Every run executes under one {!Pool.job}, so {e concurrent runs
    sharing one pool} neither await nor observe each other's tasks, and a
    failure aborts only its own run: that run's queued tasks are skipped,
    other runs' tasks are untouched.  [?job] supplies the job — the
    server passes its request's, so the request's span sees every task;
    without it the run creates a private one ({!Pool.new_job}).

    @raise Invalid_argument if the graph is cyclic or in-degrees are
    inconsistent (not every task became ready); checked only on a run
    whose tasks all succeeded. *)

val predecessors : num_tasks:int -> successors:(int -> int list) -> int list array
(** Invert the successor function once; each predecessor list comes back in
    ascending task order. *)
