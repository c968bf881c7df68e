(** The per-layer ledger: metrics derived from a traced run's spans, the
    factorization's [?profile] task measures, its maps and the pool's
    registry.  Names follow the repository's modules ([geostat], [core],
    [linalg], [runtime], [parallel]). *)

module Profile = Geomix_obs.Profile

type fact = {
  wall : float;  (** the factorization call's wall time, s *)
  measures : Profile.measure list;  (** its task measures, every round *)
  workers : int;  (** domains that ran tasks (1 when serial) *)
}

val profiled :
  ?pool:Geomix_parallel.Pool.t -> ?obs:Geomix_obs.Metrics.t -> fact list ref -> Problem.factor
(** {!Problem.robust} with a fresh [?profile] collector per call, pushing
    the call's {!fact} onto the list. *)

val chain_metrics : Tracer.t -> facts:fact list -> nt:int -> nb:int -> Report.metric list
(** Medians of the {!Problem.chain} step spans ([geostat.assemble_ms],
    [core.pmap_ms], [core.cmap_ms], [core.factorize_ms], [core.solve_ms]),
    and from the task measures: busy time and GFLOP/s per kernel class,
    busy time per kernel precision, tasks per factorization, the runtime
    overhead [1 − Σ busy ÷ Σ (wall × workers)] and the critical-path
    fraction of {!Profile.analyze}. *)

type maps = {
  ops : int;  (** operations that ran under this map *)
  pmap : Geomix_core.Precision_map.t;  (** the requested map *)
  motion : Geomix_core.Comm_map.motion;  (** [Comm_map.motion] of its maps *)
  escalations : int;  (** summed over those operations *)
}

val map_metrics : maps list -> Report.metric list
(** Means per operation: computed STC and FP64-equivalent broadcast
    bytes, the tile fraction of each framework precision, and
    escalations. *)

val motion_frac : maps list -> float
(** Summed STC bytes over summed FP64-equivalent bytes. *)

val pool_metrics : Geomix_obs.Metrics.snapshot option -> ops:int -> Report.metric list
(** [parallel.queue_wait_us_p50] / [_p99] from the [pool.queue_wait_s]
    histogram and [parallel.idle_waits_per_op]; zeros without a pool
    registry. *)

val rounding : unit -> Report.metric list
(** [precision.round_ns_per_elem.<scalar>]: [Mat.rounded] on a 64×64 tile
    for FP32, FP16, BF16 and FP8-E4M3. *)

val empty_tasks : Geomix_parallel.Pool.t -> Report.metric
(** [runtime.empty_task_us]: [Dag_exec.run] with empty task bodies over
    the NT = 24 Cholesky DAG (2 600 tasks) on the given pool, per task. *)

val synthesize : n:int -> reps:int -> Report.metric
(** [geostat.synthesize_ms]: one [Field.synthesize] at [n] sites. *)

val emulation : nb:int -> Problem.inputs -> reps:int -> Report.metric list
(** On the first [reps] operations' matrices, factorized serially:
    [linalg.emul_slowdown], task busy time under the norm-rule map over
    busy time under [Precision_map.uniform Fp64], and
    [linalg.minor_mwords_per_op], minor-heap words allocated by the
    mixed-precision factorization ([Gc.minor_words], millions). *)

val traced_halves :
  Tracer.t -> fail:(string -> unit) -> facts:fact list -> nb:int -> Problem.inputs ->
  factor_span:string ->
  plain:Geomix_geostat.Likelihood.evaluation array * float ->
  traced:Geomix_geostat.Likelihood.evaluation array * float ->
  maps:maps list -> worst:float -> Report.metric list ->
  int * Report.metric list * (string * Geomix_obs.Jsonlite.t) list
(** The tail of a traced chain run: its first half ran untraced and its
    second traced over the same op sequence, each given as the ops'
    evaluations with the half's elapsed time.  Fails every traced op that
    differs bitwise from the untraced op of the same index.  Returns the
    ops attempted, the ledger — {!chain_metrics}, {!map_metrics},
    {!rounding}, {!synthesize}, {!emulation}, the workload's own [extra]
    metrics, [geostat.loglik_rel_err] ([worst]),
    [obs.trace_overhead_frac] and [obs.span_coverage_frac] (the step
    spans, [factor_span] among them, over the ["op"] spans) — and the
    header's op counts. *)

val median_ms : float array -> float
(** Median in milliseconds of durations in seconds; 0 when empty. *)
