(** The out-of-core workload [ooc_tight]: the likelihood chain with its
    factorization run by [Ooc_cholesky.factorize ~checkpoint_every:1] at
    n = 384, nb = 32 (NT = 12) under a residency budget of 10 FP64 tiles,
    so spills (writes), reloads (reads), fsyncs and manifest commits run
    beside the kernels.  Each op gets a fresh store directory, created and
    removed outside the op timer.

    Checks: every op's factor must be bitwise equal to the in-core
    [Mp_cholesky.factorize] of the same matrix under the same maps, and
    its log-likelihood within [u_req] of exact FP64 (every 10th op in the
    measured run, every op in the traced run). *)

type params = {
  n : int;
  nb : int;
  budget_tiles : int;  (** residency budget, in FP64 tiles *)
  tail : float;  (** the percentile [latency_tail_ms] reports *)
}

val tight : smoke:bool -> params
val run : Common.cfg -> params -> Report.outcome
