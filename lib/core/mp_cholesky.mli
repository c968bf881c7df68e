(** Numeric adaptive mixed-precision tile Cholesky (Algorithm 1 under the
    precision maps of Sections V–VI).

    The factorization executes the task DAG of {!Geomix_runtime.Cholesky_dag}
    on a {!Geomix_parallel.Pool}, each kernel running through the
    precision-emulated {!Geomix_linalg.Blas_emul} at the precision the map
    assigns to its tile.  Consumers of a broadcast tile read the {e shipped}
    form of the data: under STC that is the tile down-converted once to the
    communication format of Algorithm 2, so the accuracy consequences of the
    automated conversion strategy — not just its speed — are reproduced.
    Each converted form is a buffer taken from {!Geomix_linalg.Buf_pool}
    and given back when the factorization ends, raising or not; a TTC form
    is the stored tile itself and never enters the pool.
    The conversion strategy is the communication map: {!Comm_map.compute}
    (the default) is the paper's per-tile STC/TTC decision, and
    {!Comm_map.ttc} the always-TTC baseline of refs [18]/[38]. *)

open Geomix_tile

val comm_conversion :
  ?cmap:Comm_map.t ->
  Precision_map.t ->
  int ->
  int ->
  Geomix_precision.Fpformat.scalar option
(** [comm_conversion ?cmap pmap] is the transfer-form decision both
    factorization drivers ({!factorize} and {!Ooc_cholesky}) make for the
    broadcast of tile (i, j): [Some s] when the communication map ships it
    converted to [s] (STC), [None] when consumers read the stored tile
    itself (TTC).  The communication map is [cmap], else
    [Comm_map.compute pmap], derived once on partial application.
    @raise Invalid_argument when [cmap]'s tile count differs from
    [pmap]'s. *)

val factorize :
  ?pool:Geomix_parallel.Pool.t ->
  ?profile:Geomix_obs.Profile.collector ->
  ?faults:Geomix_fault.Fault.t ->
  ?retry:Geomix_fault.Retry.policy ->
  ?obs:Geomix_obs.Metrics.t ->
  ?integrity:Geomix_integrity.Guard.t ->
  ?cmap:Comm_map.t ->
  ?observe:(i:int -> j:int -> Geomix_linalg.Mat.t -> unit) ->
  ?job:Geomix_parallel.Pool.job ->
  pmap:Precision_map.t ->
  Tiled.t ->
  unit
(** In-place lower Cholesky of the tiled symmetric matrix (upper triangles
    of diagonal tiles are left untouched).  The precision map must have the
    matrix's tile count.

    [?cmap] substitutes a caller-supplied communication map for the
    [Comm_map.compute pmap] the factorization would otherwise derive — the
    always-TTC baseline ({!Comm_map.ttc}), range-driven transfer formats
    such as the autotuner's FP8 overrides ({!Comm_map.override}) and the
    request server's memoized maps ({!Geomix_serve.Cache}).  It must have
    the matrix's tile count.

    Out-of-core factorization is {!Ooc_cholesky}'s job; this driver is
    in-core only.

    [?job] runs the execution under the caller's
    {!Geomix_parallel.Pool.job} — how the request server ties a
    factorization to its request.  Without it the run gets a private job;
    either way, concurrent factorizations sharing one pool neither await
    nor observe each other's tasks or failures.  When the job carries a
    span ({!Geomix_parallel.Pool.job_span}), the factorization attributes
    its task completions, supervised retries and RAW-edge transfers to it
    (see {b Motion accounting}).

    [?observe] is the range-instrumentation hook (the [?obs]-style pilot
    pass of the autotuner): after each kernel writes tile (i, j), the
    callback receives the {e FP64 working values} — before any
    storage/transfer rounding — of that tile.  POTRF and TRSM observe the
    freshly factored/solved tile once; each SYRK/GEMM observes the
    accumulator after its update.  Observers must not mutate the matrix;
    the factorization is bit-identical with or without the hook.  Distinct
    tiles may be observed concurrently by different pool workers (writes to
    the {e same} tile are serialized by the DAG), so observer state must be
    per-tile or synchronized — {!Geomix_autotune.Range_tracker} keeps
    per-tile accumulators.

    [?profile] collects the one per-task record of a measured run: a
    {!Geomix_obs.Profile} measure per task (label = ["GEMM(5,3,1)"]-style
    task name, class = kernel, precision = its execution precision, worker
    = the pool worker that ran it, wall-clock start/stop relative to the
    run's origin) for critical-path analysis against
    {!Geomix_runtime.Cholesky_dag} predecessors;
    {!Geomix_runtime.Trace.of_measures} turns the measures into a trace for
    the Chrome-JSON and Gantt exporters.

    [?obs]'s event stream ({!Geomix_obs.Metrics.events}) narrates the same
    execution (component ["cholesky"]): Debug [task_begin]/[task_end] pairs
    carrying the measured run-relative span in field ["at"] (the same
    floats [?profile] records, so the streamed log reconstructs the
    measured makespan exactly), an Info [panel] event per completed
    POTRF(k) with its precision, and Warn [retry] events per supervised
    re-execution (task, attempt, error and — when [?retry] is given — the
    backoff applied).  The per-task pair is built only while a sink is
    attached to that stream: without one, as without [?profile] and a
    traced [?job], the run installs no per-task hook and reads no clock.

    {b Supervised recovery.}  [?faults] subjects every kernel to the seeded
    fault plan (site ["exec"], keyed by the ["POTRF(3)"]-style task name) and
    [?retry] re-executes failed attempts with bounded backoff, after
    restoring the task's written tile from a pre-attempt snapshot — so a
    retried SYRK/GEMM never double-applies its accumulation.  Fault decisions
    are pure functions of (seed, task name, attempt): a faulted run that
    recovers produces bitwise-identical tiles to the fault-free run, under
    any worker count.  [Blas.Not_positive_definite] is never retried — it is
    deterministic under restore-and-re-run and belongs to precision recovery
    ({!factorize_robust}), not execution recovery.  With [?obs], recovery
    records [cholesky.retries], [cholesky.restores] and
    [cholesky.restored_bytes].

    {b Motion accounting.}  With [?obs], every consumer [read] of a
    broadcast payload records the RAW-edge transfer at the byte level:
    [cholesky.shipped_bytes] (as actually shipped — the Algorithm 2
    transfer scalar under STC, the storage scalar under TTC),
    [cholesky.shipped_bytes_fp64] (the 8-byte-per-element FP64-equivalent
    baseline), [cholesky.shipped_edges], and a
    [cholesky.shipped_bytes.<scalar>] counter per transfer format.  The
    span of [?job] receives the very same quantities — same call site,
    same values ({!Geomix_obs.Span.note_transfer}) — so a fully-sampled
    traced server run conserves the aggregate counters bitwise.

    [?faults] additionally arms forced pivot failures (site ["pivot"],
    {!Geomix_fault.Fault.pivot_failure}): an armed POTRF(k) whose row band
    carries sub-FP64 work raises [Not_positive_definite (k·nb)] before
    touching its tile, emulating the precision-induced loss of positive
    definiteness the escalation fallback exists for.  Blocks whose band is
    already entirely FP64 never fire — an escalated re-run genuinely cures
    the injection.  Each {!factorize_robust} round redraws the pivot
    decision independently (the round number feeds its attempt slot).

    {b ABFT tile integrity.}  [?integrity] guards every producer/consumer
    boundary of the factorization with per-tile checksums
    ({!Geomix_integrity.Guard}; any previous stamps are reset on entry):

    - a kernel verifies its INOUT tile before touching it, and SYRK/GEMM
      re-stamp the accumulator after their update;
    - [publish] stamps the FP64 working tile, then carries the stamp
      across the storage down-convert and (under STC, per
      {!Comm_map.strategy}) across Algorithm 2's transfer conversion with
      the conversion-tolerant Frobenius fingerprint, re-stamping the exact
      bytes on the far side of each hop — so a lawful rounding passes
      while a flipped high-order bit fails;
    - every [read] of a broadcast payload is verified exactly (TTC
      consumers included) before the kernel consumes it;
    - a terminal sweep re-verifies all stored tiles and in-flight payloads
      before the factor is handed back.

    Detected corruptions are repaired in place — stored tiles from the
    guard's snapshots (enable them via [Guard.create ~snapshots:true]),
    broadcast payloads by recomputation from the guarded stored tile — and
    re-verified; an unrecoverable one raises
    {!Geomix_integrity.Guard.Corrupt}, which is deliberately never
    retried (re-running a consumer on corrupted inputs reproduces the
    wrong answer) and propagates through {!factorize_robust} with the
    matrix restored.  With faults disabled, a guarded factorization is
    bitwise identical to an unguarded one.

    When [?faults] lists {!Geomix_fault.Fault.Sdc}, each task additionally
    draws a seeded silent corruption ({!Geomix_fault.Fault.sdc_decide},
    keyed like pivot injection by the round): POTRF/TRSM corrupt the
    broadcast payload they just published (a fresh corrupted copy replaces
    the slot — a transit corruption, never damage to the stored factor),
    SYRK/GEMM flip a bit of their accumulator tile in memory.  Injection
    happens whether or not a guard is attached; without one the corruption
    propagates silently into the result — which is the point of the
    [geomix chaos --sdc] experiment.

    @raise Geomix_linalg.Blas.Not_positive_definite when a diagonal pivot
    fails; the payload is the {e global} row index (block [k], local pivot
    [p] report [k·nb + p]), so recovery can locate the offending block as
    [pivot / nb]. *)

(** {1 Precision-escalation recovery}

    The numeric fallback of the fault-tolerance layer: when the
    mixed-precision factorization loses positive definiteness — a known
    failure mode of aggressive precision maps on ill-conditioned
    covariances — the offending diagonal block's row/column band is promoted
    to FP64 ({!Precision_map.escalate_band}) and the factorization is re-run
    from a pristine copy.  If band escalations stop making progress (same
    block fails twice, or the escalation budget is exhausted) the whole map
    is promoted to FP64; failure under an all-FP64 map is true
    indefiniteness, reported rather than raised. *)

type scope =
  | Band  (** one diagonal block's row/column band promoted to FP64 *)
  | Full  (** the whole map promoted to FP64 *)

type escalation = { block : int; scope : scope }

type outcome =
  | Factorized
  | Indefinite of int
      (** global pivot index that failed under the all-FP64 map *)

type report = {
  outcome : outcome;
  escalations : escalation list;  (** in the order they were applied *)
  rounds : int;  (** factorization attempts, ≥ 1 *)
  pmap : Precision_map.t;  (** the map the final round ran under *)
}

val factorize_robust :
  ?pool:Geomix_parallel.Pool.t ->
  ?profile:Geomix_obs.Profile.collector ->
  ?faults:Geomix_fault.Fault.t ->
  ?retry:Geomix_fault.Retry.policy ->
  ?obs:Geomix_obs.Metrics.t ->
  ?integrity:Geomix_integrity.Guard.t ->
  ?cmap:Comm_map.t ->
  ?job:Geomix_parallel.Pool.job ->
  pmap:Precision_map.t ->
  Tiled.t ->
  report
(** {!factorize} with automatic precision escalation.  [?cmap] is the
    caller's memoized communication map for the {e original} [pmap]; it
    feeds round 1 only — escalated rounds run under a promoted map, so
    they re-derive their transfers as {!factorize} would.  On [Factorized] the
    matrix holds the factor computed under [report.pmap]; on [Indefinite]
    (and on any propagated execution fault) the matrix is restored to its
    input values.  The restore copy that keeps this promise is one
    contiguous buffer taken from {!Geomix_linalg.Buf_pool}, and it is given
    back on every exit, so a warm call of a shape allocates no copy.  The
    pool is safe across domains and threads, and the bytes it keeps are
    bounded (at most 32 free buffers per shape and 32 MiB in all); a copy
    it does not keep is left to the GC.  At most 4 band-scoped retries run
    before the full map is promoted.  With [?obs], records
    [recovery.band_escalations], [recovery.full_escalations] and
    [recovery.indefinite], and its event stream narrates escalation
    decisions on component ["recovery"]: a Warn [escalate] event per
    promotion (with the offending block, scope and round) and an Error
    [indefinite] event when the all-FP64 map still fails.  [?obs] and
    [?profile] are also passed through to every {!factorize} round, so a
    multi-round recovery produces one continuous event stream and a
    profile whose per-task durations accumulate across rounds.  Never raises
    [Not_positive_definite]. *)

val solve_lower : Tiled.t -> float array -> float array
(** Forward substitution [L·y = b] on a factorized tiled matrix (FP64). *)

val solve_lower_trans : Tiled.t -> float array -> float array
(** Backward substitution [Lᵀ·x = y]. *)

val log_det : Tiled.t -> float
(** [log |A| = 2·Σ log L_ii] of a factorized matrix. *)
