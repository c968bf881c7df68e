module Metrics = Geomix_obs.Metrics
module Events = Geomix_obs.Events
module Pool = Geomix_parallel.Pool
module Heap = Geomix_util.Heap
module Rng = Geomix_util.Rng
module Locations = Geomix_geostat.Locations
module Covariance = Geomix_geostat.Covariance
module Field = Geomix_geostat.Field
module Likelihood = Geomix_geostat.Likelihood
module Prediction = Geomix_geostat.Prediction
module Mp_cholesky = Geomix_core.Mp_cholesky
module Precision_map = Geomix_core.Precision_map
module Comm_map = Geomix_core.Comm_map
module Cholesky_dag = Geomix_runtime.Cholesky_dag
module Tiled = Geomix_tile.Tiled
module Guard = Geomix_integrity.Guard
module Span = Geomix_obs.Span
module Profile = Geomix_obs.Profile
module Expo = Geomix_obs.Expo
module Energy = Geomix_gpusim.Energy
module Gpu_specs = Geomix_gpusim.Gpu_specs
module Flops = Geomix_precision.Flops
module Fpformat = Geomix_precision.Fpformat
module Dag_exec = Geomix_parallel.Dag_exec
module P = Protocol

(* A waiter in the admission queue.  Ordering is (priority rank, arrival
   sequence): strict priority, FIFO within a class. *)
type ticket = { rank : int; seq : int; mutable granted : bool }

(* The graceful-shutdown state machine.  [Running] accepts; [Draining d]
   refuses new work but lets queued and in-flight requests finish until
   the absolute deadline [d] on the injected clock; [Stopped] is terminal
   (a forced stop, or a drain that ran its course). *)
type lifecycle = Running | Draining of float | Stopped

type t = {
  pool : Pool.t;
  cache : Cache.t;
  now : unit -> float;
  max_inflight : int;
  queue_capacity : int;
  faults : Geomix_fault.Fault.t option;
  retry : Geomix_fault.Retry.policy option;
  integrity : bool;
  drain_deadline_s : float;
  trace_sample : float;
  breaker : Breaker.t;
  mutex : Mutex.t;
  turn : Condition.t;
  waiting : ticket Heap.t;
  mutable waiting_count : int;
  mutable running : int;
  mutable seq : int;
  mutable served : int;
  mutable lifecycle : lifecycle;
  mutable stop : (unit -> unit) option;
  obs : Metrics.t;
  m_requests : Metrics.counter;
  m_rejected : Metrics.counter;
  m_expired : Metrics.counter;
  m_errors : Metrics.counter;
  m_mc_replicates : Metrics.counter;
  m_recovered : Metrics.counter;
  m_escalated : Metrics.counter;
  m_indefinite : Metrics.counter;
  m_shed : Metrics.counter;
  m_inflight : Metrics.gauge;
  m_queue_depth : Metrics.gauge;
  m_queue_peak : Metrics.gauge;
  m_latency : Metrics.histogram;
}

let create ?obs ?(now = Unix.gettimeofday) ?(max_inflight = 4)
    ?(queue_capacity = 16) ?(cache_capacity = 32) ?faults ?retry ?(integrity = false)
    ?(drain_deadline_s = 5.0) ?(trace_sample = 0.) ?breaker_config ~pool () =
  if max_inflight < 1 then invalid_arg "Server.create: max_inflight must be >= 1";
  if queue_capacity < 0 then
    invalid_arg "Server.create: queue_capacity must be >= 0";
  if not (Float.is_finite drain_deadline_s) || drain_deadline_s < 0. then
    invalid_arg "Server.create: drain_deadline_s must be finite and >= 0";
  if not (Float.is_finite trace_sample) || trace_sample < 0. || trace_sample > 1.
  then invalid_arg "Server.create: trace_sample must be in [0, 1]";
  let obs = match obs with Some r -> r | None -> Metrics.create () in
  let cache = Cache.create ~obs ~capacity:cache_capacity () in
  let breaker = Breaker.create ~obs ?config:breaker_config ~now () in
  let cmp a b =
    if a.rank <> b.rank then compare a.rank b.rank else compare a.seq b.seq
  in
  {
    pool;
    cache;
    now;
    max_inflight;
    queue_capacity;
    faults;
    retry;
    integrity;
    drain_deadline_s;
    trace_sample;
    breaker;
    mutex = Mutex.create ();
    turn = Condition.create ();
    waiting = Heap.create ~cmp;
    waiting_count = 0;
    running = 0;
    seq = 0;
    served = 0;
    lifecycle = Running;
    stop = None;
    obs;
    m_requests = Metrics.counter obs "serve.requests";
    m_rejected = Metrics.counter obs "serve.rejected";
    m_expired = Metrics.counter obs "serve.deadline_expired";
    m_errors = Metrics.counter obs "serve.errors";
    m_mc_replicates = Metrics.counter obs "serve.mc_replicates";
    m_recovered = Metrics.counter obs "serve.recovered";
    m_escalated = Metrics.counter obs "serve.escalated";
    m_indefinite = Metrics.counter obs "serve.indefinite";
    m_shed = Metrics.counter obs "serve.shed";
    m_inflight = Metrics.gauge obs "serve.inflight";
    m_queue_depth = Metrics.gauge obs "serve.queue_depth";
    m_queue_peak = Metrics.gauge obs "serve.queue_peak";
    m_latency = Metrics.histogram obs "serve.latency_s";
  }

let cache t = t.cache
let metrics t = t.obs
let pool t = t.pool
let breaker t = t.breaker

let emit ?(level = Events.Info) t name fields =
  Events.emit ~level (Metrics.events t.obs) ~component:"serve" ~name fields

let served t =
  Mutex.lock t.mutex;
  let n = t.served in
  Mutex.unlock t.mutex;
  n

let note_served t =
  Mutex.lock t.mutex;
  t.served <- t.served + 1;
  let n = t.served in
  Mutex.unlock t.mutex;
  n

(* {2 Admission control}

   A bounded priority queue in front of [max_inflight] execution slots.
   Waiters never block on a timed wait — deadlines are evaluated against
   the injected clock at admission entry, at slot grant and between
   Monte-Carlo replicates, so the whole policy is deterministic under the
   virtual clock the tests drive. *)

(* Lock held.  Hand free slots to the best waiters; their [granted] flag
   flips under the lock and the condition broadcast wakes them. *)
let pump t =
  let granted = ref false in
  let continue = ref true in
  while !continue && t.running < t.max_inflight do
    match Heap.pop t.waiting with
    | None -> continue := false
    | Some tk ->
      t.waiting_count <- t.waiting_count - 1;
      tk.granted <- true;
      t.running <- t.running + 1;
      granted := true
  done;
  if !granted then Condition.broadcast t.turn

let admit t ~rank =
  Mutex.lock t.mutex;
  if t.running < t.max_inflight && Heap.is_empty t.waiting then begin
    t.running <- t.running + 1;
    Metrics.set t.m_inflight (float_of_int t.running);
    Mutex.unlock t.mutex;
    `Admitted
  end
  else if t.waiting_count >= t.queue_capacity then begin
    Mutex.unlock t.mutex;
    `Saturated
  end
  else begin
    t.seq <- t.seq + 1;
    let tk = { rank; seq = t.seq; granted = false } in
    Heap.push t.waiting tk;
    t.waiting_count <- t.waiting_count + 1;
    Metrics.set t.m_queue_depth (float_of_int t.waiting_count);
    Metrics.set_max t.m_queue_peak (float_of_int t.waiting_count);
    pump t;
    while not tk.granted do
      Condition.wait t.turn t.mutex
    done;
    Metrics.set t.m_inflight (float_of_int t.running);
    Metrics.set t.m_queue_depth (float_of_int t.waiting_count);
    Mutex.unlock t.mutex;
    `Admitted
  end

let release t =
  Mutex.lock t.mutex;
  t.running <- t.running - 1;
  pump t;
  Metrics.set t.m_inflight (float_of_int t.running);
  Metrics.set t.m_queue_depth (float_of_int t.waiting_count);
  Mutex.unlock t.mutex

let inflight t =
  Mutex.lock t.mutex;
  let n = t.running in
  Mutex.unlock t.mutex;
  n

let queued t =
  Mutex.lock t.mutex;
  let n = t.waiting_count in
  Mutex.unlock t.mutex;
  n

let deadline_passed t = function
  | None -> false
  | Some d -> t.now () > d

(* {2 Graceful lifecycle}

   Drain is a pure state machine on the injected clock: {!request_drain}
   flips [Running] to [Draining (now + drain_deadline_s)] once (further
   calls are no-ops — the idempotence the signal handler relies on), and
   {!drain_status} merely reads the state against the clock, never
   blocking — so the whole drain policy is testable on the virtual
   clock. *)

let request_drain t =
  Mutex.lock t.mutex;
  let started =
    match t.lifecycle with
    | Running ->
      t.lifecycle <- Draining (t.now () +. t.drain_deadline_s);
      true
    | Draining _ | Stopped -> false
  in
  Mutex.unlock t.mutex;
  if started then
    emit ~level:Events.Warn t "drain_begin"
      [ ("deadline_s", Events.fnum t.drain_deadline_s) ];
  started

let force_stop t =
  Mutex.lock t.mutex;
  let was = t.lifecycle in
  t.lifecycle <- Stopped;
  Mutex.unlock t.mutex;
  if was <> Stopped then emit ~level:Events.Warn t "force_stop" []

let draining t =
  Mutex.lock t.mutex;
  let d = t.lifecycle <> Running in
  Mutex.unlock t.mutex;
  d

let drain_status t =
  Mutex.lock t.mutex;
  let st =
    match t.lifecycle with
    | Running -> `Running
    | Stopped -> `Stopped
    | Draining d ->
      if t.running = 0 && t.waiting_count = 0 then `Drained
      else if t.now () > d then `Expired
      else `Draining (d -. t.now ())
  in
  Mutex.unlock t.mutex;
  st

(* {2 Problem construction} *)

let cov_of (k : Cache.key) =
  let { Cache.family; sigma2; beta; nu; nugget; _ } = k in
  Covariance.of_family ~nugget family ~sigma2 ~beta ~nu

let sites ~n ~seed =
  Locations.morton_sort
    (Locations.jittered_grid_2d ~rng:(Rng.create ~seed) ~n)

(* The memoized pre-work: a pure function of the shape key.  A miss costs
   one covariance assembly and four O(NT²)–O(NT³) constructions. *)
let build_artifact (key : Cache.key) : Cache.artifact =
  let cov = cov_of key in
  let locs = sites ~n:key.Cache.n ~seed:key.Cache.locs_seed in
  let a = Covariance.build_tiled cov locs ~nb:key.Cache.nb in
  let pmap = Precision_map.of_tiled ~u_req:key.Cache.u_req a in
  let cmap = Comm_map.compute pmap in
  let dag = Cholesky_dag.create ~nt:(Tiled.nt a) in
  let preds =
    Dag_exec.predecessors ~num_tasks:(Cholesky_dag.num_tasks dag)
      ~successors:(Cholesky_dag.successors dag)
  in
  { Cache.locs; pmap; cmap; dag; preds }

(* Admission limits: the largest accepted matrix order (also the bound on a
   prediction's [n_new]) and the largest Monte-Carlo batch. *)
let max_order = 4096
let max_replicates = 1024

(* The tile-count bound: the DAG and its executor allocate per task, and a
   Cholesky of NT tiles has ~NT³/6 tasks (357 760 at NT = 128), so the order
   bound alone would admit n = 4096, nb = 1 and ~10¹⁰ task slots. *)
let max_tiles = 128

let validate_spec (s : P.spec) =
  let finite_pos x = Float.is_finite x && x > 0. in
  if s.P.n < 1 || s.P.n > max_order then
    Error (Printf.sprintf "n must be in [1, %d]" max_order)
  else if s.P.nb < 1 || s.P.nb > s.P.n then Error "nb must be in [1, n]"
  else if (s.P.n + s.P.nb - 1) / s.P.nb > max_tiles then
    Error (Printf.sprintf "n / nb must give at most %d tiles" max_tiles)
  else if not (finite_pos s.P.u_req) then Error "u_req must be finite and positive"
  else if not (finite_pos s.P.sigma2) then Error "sigma2 must be finite and positive"
  else if not (finite_pos s.P.beta) then Error "beta must be finite and positive"
  else if not (Float.is_finite s.P.nugget) || s.P.nugget < 0. then
    Error "nugget must be finite and non-negative"
  else if not (Float.is_finite s.P.nu) then Error "nu must be finite"
  else
    (* The smoothness domain of each family, as its constructor asserts:
       a value outside it must not reach [build_artifact]. *)
    match s.P.family with
    | Covariance.Matern when not (s.P.nu > 0.) -> Error "matern nu must be positive"
    | Covariance.Powexp when not (s.P.nu > 0. && s.P.nu <= 2.) ->
      Error "powexp nu must be in (0, 2]"
    | Covariance.Sqexp | Covariance.Matern | Covariance.Powexp | Covariance.Spherical -> Ok ()

let validate = function
  | P.Ping | P.Health | P.Stats _ | P.Shutdown -> Ok ()
  | P.Likelihood s -> validate_spec s
  | P.Predict { spec; n_new; _ } ->
    Result.bind (validate_spec spec) (fun () ->
        if n_new < 1 || n_new > max_order then
          Error (Printf.sprintf "n_new must be in [1, %d]" max_order)
        else Ok ())
  | P.Mc_batch { spec; replicates } ->
    Result.bind (validate_spec spec) (fun () ->
        if replicates < 1 || replicates > max_replicates then
          Error (Printf.sprintf "replicates must be in [1, %d]" max_replicates)
        else Ok ())

(* {2 Request execution} *)

(* The result of one resilient factorization: the memoized artifact, the
   factored (or restored) matrix, the authoritative reply status and the
   precision map the surviving round actually ran under — escalated
   rounds degrade it, and the likelihood's precision fractions must
   describe the factor that was computed, not the map that failed. *)
type factorized = {
  art : Cache.artifact;
  a : Tiled.t;
  hit : bool;
  status : P.status;
  fmap : Precision_map.t;
}

(* Everything a traced request accumulates on its way down the stack: the
   span the instrumented layers credit their transfers/tasks/retries to, a
   per-request profile collector for critical-path and energy attribution,
   and the shape/SDC facts the footer is assembled from at reply time. *)
type trace_ctx = {
  span : Span.t;
  prof : Profile.collector;
  mutable art : Cache.artifact option;  (* set once a factorization ran *)
  mutable t_nb : int;
  mutable sdc_detected : int;
  mutable sdc_recovered : int;
}

let make_trace t (req : P.request) =
  (* Deterministic per-request sampling on the id hash: the same request
     id samples identically on every replica, and [trace_sample = 1.0]
     traces everything. *)
  if
    t.trace_sample > 0.
    && Hashtbl.hash req.P.id land 0xFFFF
       < int_of_float (t.trace_sample *. 65536.)
  then
    Some
      {
        span = Span.create ~request_id:req.P.id;
        prof = Profile.collector ();
        art = None;
        t_nb = 0;
        sdc_detected = 0;
        sdc_recovered = 0;
      }
  else None

(* Factorize a fresh covariance assembly under the memoized maps, scoped
   to its own pool job so concurrent requests sharing the pool neither
   await nor observe each other.  The cached [cmap] equals what the
   factorization would derive itself (Algorithm 2 is deterministic), so a
   warm-cache run is bitwise identical to a cold one — the property the
   test suite pins.

   The run goes through [factorize_robust], so the server's configured
   resilience stack applies per request: the seeded fault plan injects,
   bounded retry re-executes transients from pre-attempt snapshots, a
   per-request integrity guard (snapshots on) quarantines and repairs
   SDC, and pivot failures escalate precision instead of erroring.  The
   guard is per-request — stamps from concurrent requests must not mix —
   while the [integrity.*] counters it registers are shared through the
   registry (counter registration is idempotent by name).

   Status precedence: a failed all-FP64 round is [Indefinite]; a run that
   needed band/full escalation is [Escalated] even if it also repaired
   corruption (precision degradation is the part the client must see);
   a clean-map run that repaired SDC in place is [Corrupt_recovered] —
   its numbers are bitwise-identical to a fault-free run; else [Clean].
   Escalated and indefinite runs invalidate the cached artifact so a
   warm hit can never launder a degraded precision map into a later
   request. *)
let factorized_problem ?trace t (key : Cache.key) =
  let span = Option.map (fun c -> c.span) trace in
  let art, hit = Cache.find_or_build ?span t.cache key ~build:build_artifact in
  let cov = cov_of key in
  let a = Covariance.build_tiled cov art.Cache.locs ~nb:key.Cache.nb in
  let job = Pool.new_job ?span t.pool in
  let guard =
    if t.integrity then Some (Guard.create ~obs:t.obs ~snapshots:true ())
    else None
  in
  let report =
    Mp_cholesky.factorize_robust ~pool:t.pool ~job
      ?profile:(Option.map (fun c -> c.prof) trace)
      ?faults:t.faults ?retry:t.retry ?integrity:guard ~obs:t.obs
      ~cmap:art.Cache.cmap ~pmap:art.Cache.pmap a
  in
  (match trace with
  | None -> ()
  | Some c ->
    c.art <- Some art;
    c.t_nb <- key.Cache.nb;
    (match guard with
    | Some g ->
      c.sdc_detected <- c.sdc_detected + Guard.detected g;
      c.sdc_recovered <- c.sdc_recovered + Guard.recovered g
    | None -> ()));
  let recovered = match guard with Some g -> Guard.recovered g | None -> 0 in
  let escalations = List.length report.Mp_cholesky.escalations in
  let status =
    match report.Mp_cholesky.outcome with
    | Mp_cholesky.Indefinite _ -> P.Indefinite
    | Mp_cholesky.Factorized ->
      if escalations > 0 then P.Escalated escalations
      else if recovered > 0 then P.Corrupt_recovered recovered
      else P.Clean
  in
  (match status with
  | P.Escalated k ->
    Metrics.incr t.m_escalated;
    ignore (Cache.invalidate t.cache key);
    emit ~level:Events.Warn t "escalated"
      [
        ("key", Events.fstr (Cache.key_label key));
        ("escalations", Events.fint k);
        ("rounds", Events.fint report.Mp_cholesky.rounds);
      ]
  | P.Indefinite ->
    Metrics.incr t.m_indefinite;
    ignore (Cache.invalidate t.cache key)
  | P.Corrupt_recovered k ->
    Metrics.incr t.m_recovered;
    emit ~level:Events.Warn t "recovered"
      [
        ("key", Events.fstr (Cache.key_label key));
        ("recoveries", Events.fint k);
      ]
  | P.Clean -> ());
  { art; a; hit; status; fmap = report.Mp_cholesky.pmap }

let quad_form y = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. y

let indefinite_likelihood ~cache_hit =
  P.Likelihood_r
    {
      loglik = neg_infinity;
      log_det = nan;
      quad_form = nan;
      status = P.Indefinite;
      cache_hit;
    }

let run_likelihood ?trace t (spec : P.spec) =
  let key = Cache.key_of_spec spec in
  let f = factorized_problem ?trace t key in
  if f.status = P.Indefinite then indefinite_likelihood ~cache_hit:f.hit
  else
    let cov = cov_of key in
    let z =
      Field.synthesize ~rng:(Rng.create ~seed:spec.P.data_seed) ~cov
        f.art.Cache.locs
    in
    let y = Mp_cholesky.solve_lower f.a z in
    let ev =
      Likelihood.assemble ~n:spec.P.n ~log_det:(Mp_cholesky.log_det f.a)
        ~quad_form:(quad_form y)
        ~precision_fractions:(Precision_map.fractions f.fmap)
        ()
    in
    P.Likelihood_r
      {
        loglik = ev.Likelihood.loglik;
        log_det = ev.Likelihood.log_det;
        quad_form = ev.Likelihood.quad_form;
        status = f.status;
        cache_hit = f.hit;
      }

let run_predict ?trace t (spec : P.spec) ~n_new ~pred_seed =
  let key = Cache.key_of_spec spec in
  let span = Option.map (fun c -> c.span) trace in
  let art, hit = Cache.find_or_build ?span t.cache key ~build:build_artifact in
  let cov = cov_of key in
  (* One FP64 factor of Σ serves both the draw and the kriging solves. *)
  let factor = Field.factor cov art.Cache.locs in
  let z = Field.draw (Rng.create ~seed:spec.P.data_seed) factor in
  let new_locs = Locations.uniform_2d ~rng:(Rng.create ~seed:pred_seed) ~n:n_new in
  let p = Prediction.predict ~cov ~factor ~obs_locs:art.Cache.locs ~z ~new_locs in
  P.Predict_r
    { mean = p.Prediction.mean; variance = p.Prediction.variance; cache_hit = hit }

let run_mc ?trace t ~req_id ~deadline ~on_progress (spec : P.spec) ~replicates =
  let key = Cache.key_of_spec spec in
  let f = factorized_problem ?trace t key in
  if f.status = P.Indefinite then
    P.Mc_r
      {
        logliks = Array.make replicates neg_infinity;
        mean_loglik = neg_infinity;
        status = P.Indefinite;
        cache_hit = f.hit;
      }
  else begin
    let cov = cov_of key in
    let zs =
      Field.synthesize_many
        ~rng:(Rng.create ~seed:spec.P.data_seed)
        ~cov ~replicas:replicates f.art.Cache.locs
    in
    let log_det = Mp_cholesky.log_det f.a in
    let fractions = Precision_map.fractions f.fmap in
    let logliks = Array.make replicates nan in
    let completed = Atomic.make 0 in
    let expired = Atomic.make false in
    (* One pool-level job fans the batch out; every replicate solves
       against the shared factor (triangular solves only read it) and
       streams its completion.  The deadline is re-checked per replicate:
       an expired batch stops doing work instead of finishing late.

       Under brown-out the fan-out is capped: replicates are submitted in
       waves of [Breaker.mc_chunk] and the job is joined between waves
       (jobs are sequentially reusable), so one big batch cannot
       monopolize the pool while the server is already behind.  Each
       replicate is independent, so chunking changes scheduling only —
       the logliks are identical to the unchunked run. *)
    let job = Pool.new_job ?span:(Option.map (fun c -> c.span) trace) t.pool in
    let submit r =
      Pool.submit_job t.pool job (fun () ->
          if deadline_passed t deadline then Atomic.set expired true
          else begin
            let y = Mp_cholesky.solve_lower f.a zs.(r) in
            let ev =
              Likelihood.assemble ~n:spec.P.n ~log_det
                ~quad_form:(quad_form y) ~precision_fractions:fractions ()
            in
            logliks.(r) <- ev.Likelihood.loglik;
            Metrics.incr t.m_mc_replicates;
            let c = 1 + Atomic.fetch_and_add completed 1 in
            emit ~level:Events.Debug t "mc_replicate"
              [
                ("id", Events.fstr req_id);
                ("completed", Events.fint c);
                ("total", Events.fint replicates);
              ];
            on_progress ~completed:c ~total:replicates
          end)
    in
    let next = ref 0 in
    while !next < replicates && not (Atomic.get expired) do
      let chunk = Breaker.mc_chunk t.breaker ~replicates:(replicates - !next) in
      let upto = min replicates (!next + chunk) in
      for r = !next to upto - 1 do
        submit r
      done;
      Pool.join_job t.pool job;
      next := upto
    done;
    if Atomic.get expired then
      P.Error_r
        { code = P.Deadline_exceeded; message = "deadline expired mid-batch" }
    else begin
      let sum = Array.fold_left ( +. ) 0. logliks in
      P.Mc_r
        {
          logliks;
          mean_loglik = sum /. float_of_int replicates;
          status = f.status;
          cache_hit = f.hit;
        }
    end
  end

let run_payload ?trace t ~req_id ~deadline ~on_progress = function
  | P.Ping | P.Health | P.Stats _ | P.Shutdown ->
    assert false (* handled before admission *)
  | P.Likelihood spec -> run_likelihood ?trace t spec
  | P.Predict { spec; n_new; pred_seed } ->
    run_predict ?trace t spec ~n_new ~pred_seed
  | P.Mc_batch { spec; replicates } ->
    run_mc ?trace t ~req_id ~deadline ~on_progress spec ~replicates

(* The readiness snapshot, answered before admission so probes work while
   the server is saturated or draining. *)
let health t =
  let s = Cache.stats t.cache in
  {
    P.inflight = inflight t;
    queued = queued t;
    served = served t;
    draining = draining t;
    brownout = Breaker.tripped t.breaker;
    cache_hits = s.Cache.hits;
    cache_misses = s.Cache.misses;
    cache_evictions = s.Cache.evictions;
    recovered = Metrics.counter_value t.m_recovered;
    escalated = Metrics.counter_value t.m_escalated;
    shed = Metrics.counter_value t.m_shed;
  }

(* The pull surface: the whole registry rendered in the requested format.
   Answered before admission (like [Health]) so [geomix top] and a
   Prometheus poller keep seeing the server while it is saturated or
   draining. *)
let stats_body t = function
  | P.Stats_json -> Metrics.to_json_string (Metrics.snapshot t.obs)
  | P.Stats_prom -> Expo.to_prometheus (Metrics.snapshot t.obs)

(* Assemble the reply footer of a traced request: the span's raw motion
   accounting plus the derived quantities — duration-weighted critical
   path and modeled energy from the per-request profile (A100 power model,
   busy seconds bucketed by kernel precision), SDC counts from the
   per-request guard, and the carried reply's status/cache facts. *)
let footer_of t c ~wall reply =
  let cp_s, energy_j =
    match (c.art, Profile.measures c.prof) with
    | Some art, (_ :: _ as ms) ->
      let prof = Profile.analyze ~preds:art.Cache.preds ms in
      let busy =
        List.filter_map
          (fun (b : Profile.bucket) ->
            Option.map (fun f -> (f, b.Profile.busy))
              (Fpformat.of_string b.Profile.key))
          prof.Profile.by_precision
      in
      let flops = Flops.cholesky_tiled ~nt:(Cholesky_dag.nt art.Cache.dag) ~nb:c.t_nb in
      let e =
        Energy.of_busy Gpu_specs.a100 ~makespan:prof.Profile.makespan
          ~ngpus:(max 1 (Pool.num_workers t.pool))
          ~flops ~busy
      in
      (prof.Profile.cp_length, e.Energy.energy_joules)
    | _ -> (0., 0.)
  in
  let cache_hit, status =
    match reply with
    | P.Likelihood_r { status; cache_hit; _ } | P.Mc_r { status; cache_hit; _ }
      ->
      (cache_hit, P.status_name status)
    | P.Predict_r { cache_hit; _ } -> (cache_hit, P.status_name P.Clean)
    | P.Error_r { code; _ } -> (false, P.error_code_name code)
    | P.Pong | P.Health_r _ | P.Stats_r _ | P.Shutdown_r -> (false, "clean")
  in
  {
    P.f_span = Span.summary c.span;
    f_energy_j = energy_j;
    f_cp_s = cp_s;
    f_wall_s = wall;
    f_cache_hit = cache_hit;
    f_sdc_detected = c.sdc_detected;
    f_sdc_recovered = c.sdc_recovered;
    f_status = status;
  }

let handle_traced t ?(on_progress = fun ~completed:_ ~total:_ -> ())
    (req : P.request) =
  match req.P.payload with
  | P.Ping -> (P.Pong, None)
  | P.Health -> (P.Health_r (health t), None)
  | P.Stats fmt -> (P.Stats_r { format = fmt; body = stats_body t fmt }, None)
  | P.Shutdown ->
    emit t "shutdown" [ ("id", Events.fstr req.P.id) ];
    (match t.stop with Some stop -> stop () | None -> ());
    (P.Shutdown_r, None)
  | payload -> (
    Metrics.incr t.m_requests;
    emit ~level:Events.Debug t "request"
      [
        ("id", Events.fstr req.P.id);
        ("op", Events.fstr (P.op_name payload));
        ("priority", Events.fstr (P.priority_name req.P.priority));
      ];
    match validate payload with
    | Error message ->
      Metrics.incr t.m_errors;
      emit ~level:Events.Warn t "bad_request"
        [ ("id", Events.fstr req.P.id); ("error", Events.fstr message) ];
      (P.Error_r { code = P.Bad_request; message }, None)
    | Ok () ->
      let t0 = t.now () in
      let deadline = Option.map (fun s -> t0 +. s) req.P.timeout_s in
      (* Admission-time queue-depth sample for the brown-out breaker. *)
      Breaker.note_queue t.breaker
        ~frac:
          (float_of_int (queued t) /. float_of_int (max 1 t.queue_capacity));
      if draining t then begin
        Metrics.incr t.m_rejected;
        emit ~level:Events.Warn t "rejected"
          [ ("id", Events.fstr req.P.id); ("why", Events.fstr "draining") ];
        ( P.Error_r
            { code = P.Saturated; message = "server draining, not accepting work" },
          None )
      end
      else if deadline_passed t deadline then begin
        Metrics.incr t.m_expired;
        emit ~level:Events.Warn t "deadline_expired"
          [ ("id", Events.fstr req.P.id); ("where", Events.fstr "admission") ];
        ( P.Error_r
            {
              code = P.Deadline_exceeded;
              message = "deadline expired at admission";
            },
          None )
      end
      else if Breaker.tripped t.breaker && req.P.priority = P.Low then begin
        (* Brown-out: shed the lowest class at admission so the work the
           server does accept still meets its deadlines. *)
        Metrics.incr t.m_shed;
        Metrics.incr t.m_rejected;
        emit ~level:Events.Warn t "shed" [ ("id", Events.fstr req.P.id) ];
        ( P.Error_r
            { code = P.Saturated; message = "brown-out: low-priority request shed" },
          None )
      end
      else
        match admit t ~rank:(P.priority_rank req.P.priority) with
        | `Saturated ->
          Metrics.incr t.m_rejected;
          emit ~level:Events.Warn t "rejected"
            [ ("id", Events.fstr req.P.id) ];
          ( P.Error_r
              {
                code = P.Saturated;
                message =
                  Printf.sprintf "server saturated (%d in flight, %d queued)"
                    t.max_inflight t.queue_capacity;
              },
            None )
        | `Admitted ->
          Fun.protect
            ~finally:(fun () -> release t)
            (fun () ->
              if deadline_passed t deadline then begin
                Metrics.incr t.m_expired;
                Breaker.note_outcome t.breaker ~missed:true;
                emit ~level:Events.Warn t "deadline_expired"
                  [ ("id", Events.fstr req.P.id); ("where", Events.fstr "grant") ];
                ( P.Error_r
                    {
                      code = P.Deadline_exceeded;
                      message = "deadline expired while queued";
                    },
                  None )
              end
              else
                let trace = make_trace t req in
                match
                  run_payload ?trace t ~req_id:req.P.id ~deadline ~on_progress
                    payload
                with
                | reply ->
                  let dt = t.now () -. t0 in
                  Metrics.observe t.m_latency dt;
                  let missed =
                    match reply with
                    | P.Error_r { code = P.Deadline_exceeded; _ } ->
                      Metrics.incr t.m_expired;
                      true
                    | _ -> false
                  in
                  Breaker.note_outcome t.breaker ~missed;
                  emit ~level:Events.Debug t "done"
                    [
                      ("id", Events.fstr req.P.id);
                      ("latency_s", Events.fnum dt);
                    ];
                  (reply, Option.map (fun c -> footer_of t c ~wall:dt reply) trace)
                | exception exn ->
                  Metrics.incr t.m_errors;
                  let message = Printexc.to_string exn in
                  emit ~level:Events.Error t "internal_error"
                    [
                      ("id", Events.fstr req.P.id);
                      ("error", Events.fstr message);
                    ];
                  (P.Error_r { code = P.Internal; message }, None)))

let handle t ?on_progress req = fst (handle_traced t ?on_progress req)

(* {2 Unix-domain-socket front end} *)

type outcome = Served | Drained | Drain_expired | Forced

let outcome_name = function
  | Served -> "served"
  | Drained -> "drained"
  | Drain_expired -> "drain_expired"
  | Forced -> "forced"

(* Signal plumbing.  A handler may only do async-signal-safe work, so it
   just bumps a module-global counter; the accept loop polls it between
   selects.  One signal begins a drain, a second forces immediate stop.
   [notify_signal] is the handler body, exposed so tests can drive the
   exact same path without delivering real signals. *)

let signal_count = Atomic.make 0
let notify_signal () = Atomic.incr signal_count
let signals_installed = Atomic.make false

let install_drain_signals () =
  if not (Atomic.exchange signals_installed true) then begin
    let h = Sys.Signal_handle (fun _ -> notify_signal ()) in
    (try Sys.set_signal Sys.sigterm h with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigint h with Invalid_argument _ | Sys_error _ -> ())
  end

(* The listen queue length, and the period of [?telemetry]'s snapshot lines
   on the injected clock. *)
let backlog = 64
let telemetry_interval_s = 1.0

let serve_unix t ~path ?max_requests ?stats_path ?telemetry () =
  (* A client gone mid-stream must surface as Sys_error (EPIPE) in
     [try_write], not deliver a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* A signal delivered before this serve run belongs to a previous run
     (or to the launcher); the drain policy starts from a clean slate. *)
  Atomic.set signal_count 0;
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd backlog;
  let closed = ref false in
  let cmutex = Mutex.create () in
  (* Open connection fds, guarded by [cmutex]; shutdown must wake their
     reader threads or the final join would wait on idle clients. *)
  let conns : (Unix.file_descr, unit) Hashtbl.t = Hashtbl.create 16 in
  let is_closed () =
    Mutex.lock cmutex;
    let c = !closed in
    Mutex.unlock cmutex;
    c
  in
  let close_listener () =
    Mutex.lock cmutex;
    if not !closed then begin
      closed := true;
      (* Closing a listening fd does not wake a thread blocked in accept(2);
         shutdown does.  The accept loop owns the actual close. *)
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (* Receive side only: blocked readers see EOF and drain, while
         in-flight replies (the Shutdown_r handshake) still flush. *)
      Hashtbl.iter
        (fun conn () ->
          try Unix.shutdown conn Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        conns
    end;
    Mutex.unlock cmutex
  in
  t.stop <- Some close_listener;
  emit t "listening" [ ("path", Events.fstr path) ];
  (* The scrape surface: a second Unix listener that answers every
     connection with one full Prometheus exposition of the registry and
     hangs up — the curl/Prometheus-friendly pull endpoint, independent of
     the framed request protocol (and of admission, so scrapes keep
     working while the server is saturated or draining). *)
  let stats_thread =
    Option.map
      (fun spath ->
        if Sys.file_exists spath then Sys.remove spath;
        let sfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sfd (Unix.ADDR_UNIX spath);
        Unix.listen sfd 16;
        emit t "stats_listening" [ ("path", Events.fstr spath) ];
        Thread.create
          (fun () ->
            while not (is_closed ()) do
              let readable =
                match Unix.select [ sfd ] [] [] 0.2 with
                | r, _, _ -> r <> []
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
              in
              if readable && not (is_closed ()) then
                match Unix.accept sfd with
                | conn, _ ->
                  let oc = Unix.out_channel_of_descr conn in
                  (try
                     output_string oc
                       (Expo.to_prometheus (Metrics.snapshot t.obs));
                     flush oc
                   with Sys_error _ -> ());
                  (try Unix.close conn with Unix.Unix_error _ -> ())
                | exception Unix.Unix_error _ -> ()
            done;
            (try Unix.close sfd with Unix.Unix_error _ -> ());
            try Sys.remove spath with Sys_error _ -> ())
          ())
      stats_path
  in
  (* Rolling telemetry: one registry snapshot line per interval on the
     injected clock, rotated by the snapshotter itself. *)
  let last_snap = ref neg_infinity in
  let maybe_snap () =
    match telemetry with
    | None -> ()
    | Some s ->
      if t.now () -. !last_snap >= telemetry_interval_s then begin
        last_snap := t.now ();
        Expo.snap s (Metrics.snapshot t.obs)
      end
  in
  let threads = ref [] in
  let handle_conn conn =
    let ic = Unix.in_channel_of_descr conn in
    let oc = Unix.out_channel_of_descr conn in
    let wmutex = Mutex.create () in
    let write_frame frame =
      Mutex.lock wmutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock wmutex)
        (fun () -> P.write_frame oc (P.frame_to_json frame))
    in
    let try_write frame = try write_frame frame with Sys_error _ -> () in
    let bad_request ~id message =
      try_write
        (P.Reply
           {
             id;
             reply = P.Error_r { code = P.Bad_request; message };
             footer = None;
           })
    in
    let rec loop () =
      match P.read_frame ic with
      | Error "eof" -> ()
      | Error message ->
        (* Framing is unrecoverable mid-stream: answer once, hang up. *)
        bad_request ~id:"" message
      | Ok json -> (
        match P.request_of_json json with
        | Error message ->
          bad_request ~id:"" message;
          loop ()
        | Ok req ->
          let on_progress ~completed ~total =
            try_write (P.Progress { id = req.P.id; completed; total })
          in
          let reply, footer = handle_traced t ~on_progress req in
          try_write (P.Reply { id = req.P.id; reply; footer });
          let n = note_served t in
          (match max_requests with
          | Some m when n >= m -> close_listener ()
          | _ -> ());
          (match reply with P.Shutdown_r -> () | _ -> loop ()))
    in
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock cmutex;
        Hashtbl.remove conns conn;
        Mutex.unlock cmutex;
        try Unix.close conn with Unix.Unix_error _ -> ())
      loop
  in
  let drain_started = ref false in
  let begin_drain () =
    if not !drain_started then begin
      drain_started := true;
      ignore (request_drain t);
      (* Stop accepting and EOF idle readers; queued and in-flight
         requests keep running and their replies still flush. *)
      close_listener ()
    end
  in
  let check_signals () =
    match Atomic.get signal_count with
    | 0 -> ()
    | 1 -> begin_drain ()
    | _ ->
      force_stop t;
      close_listener ()
  in
  while not (is_closed ()) do
    check_signals ();
    maybe_snap ();
    let readable =
      (not (is_closed ()))
      &&
      match Unix.select [ fd ] [] [] 0.2 with
      | r, _, _ -> r <> []
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if readable then
      match Unix.accept fd with
      | conn, _ ->
        Mutex.lock cmutex;
        Hashtbl.replace conns conn ();
        (* A shutdown may have raced this accept; wake the reader too. *)
        if !closed then
          (try Unix.shutdown conn Unix.SHUTDOWN_RECEIVE
           with Unix.Unix_error _ -> ());
        Mutex.unlock cmutex;
        threads := Thread.create handle_conn conn :: !threads
      | exception Unix.Unix_error _ -> close_listener ()
  done;
  close_listener ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* Decide how this run ends.  A forced stop (second signal) and an
     expired drain must not join the connection threads — an in-flight
     factorization cannot be interrupted, and the caller (the CLI) exits
     the process, which is the cancellation. *)
  let outcome =
    if Atomic.get signal_count >= 2 then Forced
    else if !drain_started then begin
      let rec await () =
        if Atomic.get signal_count >= 2 then begin
          force_stop t;
          Forced
        end
        else
          match drain_status t with
          | `Drained | `Running | `Stopped ->
            (* [`Running]/[`Stopped] are unreachable here (drain was
               requested and nothing re-opens it); join and finish. *)
            List.iter Thread.join !threads;
            Drained
          | `Expired -> Drain_expired
          | `Draining _ ->
            Thread.delay 0.02;
            await ()
      in
      await ()
    end
    else begin
      List.iter Thread.join !threads;
      Served
    end
  in
  t.stop <- None;
  Option.iter Thread.join stats_thread;
  (* A terminal snapshot so even a run shorter than the interval leaves
     one line of telemetry behind. *)
  (match telemetry with
  | None -> ()
  | Some s -> Expo.snap s (Metrics.snapshot t.obs));
  (try Sys.remove path with Sys_error _ -> ());
  emit t "stopped"
    [
      ("served", Events.fint (served t));
      ("outcome", Events.fstr (outcome_name outcome));
    ];
  outcome
