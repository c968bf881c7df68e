(** The service workload [serve_mix]: an in-process [Server] with default
    settings (default pool, 4 in-flight slots, cache capacity 32) driven
    by two client connections in a closed loop through the framed
    Unix-socket protocol — each client waits for its reply before sending
    the next request, as an optimizer waits for its likelihood.

    Requests are n = 64, nb = 16 problems (4 × 4 tiles), so the codec,
    socket, cache, admission and per-request synthesis carry a large share
    of the time.  Mix: 70% likelihood, 20% Monte-Carlo batch of 4
    replicates, 10% prediction at 8 sites.  Four recurring shapes take
    90% of the traffic; 1 request in 10 brings a fresh [locs_seed], so the
    working set outgrows the cache and misses, builds and LRU evictions
    run beside hits.  With 2 clients and 4 slots the admission queue never
    fills.

    Checks: no error reply, transport error or indefinite status; every
    100th likelihood reply of each client bitwise equal to [Server.handle]
    on a fresh reference server (its relative error against exact FP64 is
    reported, not gated); in the traced run, replies equal to the
    untraced run's bitwise,
    summed footer bytes equal to the registry's [cholesky.shipped_bytes],
    and (without escalations) so is the computed STC byte count. *)

type params = { n : int; nb : int; clients : int }

val mix : smoke:bool -> params
val run : Common.cfg -> params -> Report.outcome
