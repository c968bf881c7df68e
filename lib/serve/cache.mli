(** Shape-keyed memo cache of the expensive per-problem artifacts.

    The costly pre-work of a request — sites, the Higham–Mary precision
    map, Algorithm 2's communication map and the static Cholesky DAG with
    its predecessor lists — is a pure function of the problem {e shape}
    (everything in {!Protocol.spec} except [data_seed]), so the server
    memoizes it: requests that differ only in their measurement seed share
    one build.

    {b Single-flight.}  Concurrent misses on one key build {e once}: the
    first requester installs a building marker and constructs outside the
    lock; the rest wait on a condition variable and read the published
    artifact.  Exactly one miss is counted per distinct key under any
    interleaving — what makes the smoke workload's hit rate deterministic
    enough for the CI gate.  If the build raises, the marker is withdrawn,
    waiters retry (one becomes the next builder) and the exception
    propagates to the requester that built.

    {b No torn publication.}  The table is only mutated under the cache
    mutex, and an artifact becomes visible only as one fully-constructed
    immutable record; a reader can never observe a partially-built entry
    (the interleaving-replay suite in [test_serve] drives exactly this
    through {!Geomix_verify.Explore}).

    Eviction is LRU over published entries ([Building] markers are never
    evicted — a waiter is parked on them), with hit/miss/eviction counters
    on {!Geomix_obs.Metrics} ([serve.cache.*]) and [cache_hit] /
    [cache_miss] / [cache_evict] events on that registry's event stream
    (component ["serve"]). *)

type key = {
  n : int;
  nb : int;
  u_req : float;
  family : Geomix_geostat.Covariance.family;
  sigma2 : float;
  beta : float;
  nu : float;
  nugget : float;
  locs_seed : int;
}

val key_of_spec : Protocol.spec -> key
(** The shape of a request: every field of the spec but [data_seed]. *)

val key_label : key -> string
(** Compact human-readable form for events and logs. *)

type artifact = {
  locs : Geomix_geostat.Locations.t;
      (** Morton-sorted sites, deterministic from [(n, locs_seed)] *)
  pmap : Geomix_core.Precision_map.t;   (** norm-rule kernel precisions *)
  cmap : Geomix_core.Comm_map.t;        (** Algorithm 2's transfer map *)
  dag : Geomix_runtime.Cholesky_dag.t;  (** static task graph, [nt × nt] *)
  preds : int list array;
      (** [dag]'s predecessor lists, inverted once per shape for the
          traced footer's critical-path analysis *)
}

type stats = { hits : int; misses : int; evictions : int }

type t

val create :
  ?obs:Geomix_obs.Metrics.t ->
  ?capacity:int ->
  unit ->
  t
(** [capacity] (default 32) bounds the number of {e published} entries.
    @raise Invalid_argument when [capacity < 1]. *)

val capacity : t -> int

val find_or_build :
  ?span:Geomix_obs.Span.t -> t -> key -> build:(key -> artifact) -> artifact * bool
(** The memoized lookup; the boolean is [true] on a hit.  [build] runs
    outside the cache lock and must be a pure function of the key.  With
    [?span], the [cache_hit]/[cache_miss] event carries the request's
    trace correlation fields ({!Geomix_obs.Span.fields}). *)

val find : t -> key -> artifact option
(** Non-blocking probe; refreshes recency on a hit but never waits on a
    concurrent build and never counts toward hit/miss statistics. *)

val invalidate : t -> key -> bool
(** Remove a {e published} entry, counting [serve.cache.invalidations]
    and emitting a [cache_invalidate] event; [true] when one was removed.
    The server calls this when a factorization escalated — a degraded
    artifact must not be laundered into later requests through a warm
    hit.  A concurrent [Building] marker is left untouched (its builder
    owns publication) and yields [false]. *)

val length : t -> int
(** Published entries currently resident. *)

val stats : t -> stats
