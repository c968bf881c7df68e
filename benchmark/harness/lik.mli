(** The likelihood workloads: one {!Problem.chain} evaluation per op, in a
    closed loop over the seeded θ sequence.

    - [lik_coarse]: n = 512, nb = 64 (NT = 8, 120 tasks), serial.  The
      emulated kernels do nearly all the work and the runtime almost
      none: a kernel change shows here, a scheduler change does not.
    - [lik_fine_par]: n = 384, nb = 16 (NT = 24, 2 600 tasks) on a
      2-worker pool.  Per-task work is tiny, so dispatch, cross-domain GC
      and DAG depth dominate: a runtime change shows here.

    Checks: every 10th op must be bitwise equal to
    [Likelihood.evaluate_robust] and within [u_req] of the exact FP64
    log-likelihood; in the traced run every op must equal its untraced
    counterpart bitwise and its computed STC bytes must equal the
    registry's [cholesky.shipped_bytes]. *)

type params = {
  n : int;
  nb : int;
  workers : int;  (** pool workers; 0 runs serially without a pool *)
  tail : float;  (** the percentile [latency_tail_ms] reports *)
}

val coarse : smoke:bool -> params
val fine_par : smoke:bool -> params

val run : Common.cfg -> params -> Report.outcome
