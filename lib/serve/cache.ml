module Metrics = Geomix_obs.Metrics
module Events = Geomix_obs.Events

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

let key_of_spec (s : Protocol.spec) =
  {
    n = s.Protocol.n;
    nb = s.Protocol.nb;
    u_req = s.Protocol.u_req;
    family = s.Protocol.family;
    sigma2 = s.Protocol.sigma2;
    beta = s.Protocol.beta;
    nu = s.Protocol.nu;
    nugget = s.Protocol.nugget;
    locs_seed = s.Protocol.locs_seed;
  }

let key_label k =
  Printf.sprintf "%s:n%d:nb%d:u%.3g:s%d" (Protocol.family_name k.family) k.n
    k.nb k.u_req k.locs_seed

type artifact = {
  locs : Geomix_geostat.Locations.t;
  pmap : Geomix_core.Precision_map.t;
  cmap : Geomix_core.Comm_map.t;
  dag : Geomix_runtime.Cholesky_dag.t;
  preds : int list array;
}

(* A [Building] entry is the single-flight marker: the first requester of a
   key installs it (under the lock), builds outside the lock, then
   publishes the finished artifact and broadcasts.  Every concurrent
   requester of the same key waits on [published] instead of building —
   exactly one miss per distinct key, which is what makes the smoke
   workload's hit rate deterministic enough to gate in CI. *)
type entry = Ready of { artifact : artifact; mutable tick : int } | Building

type stats = { hits : int; misses : int; evictions : int }

type t = {
  capacity : int;
  table : (key, entry) Hashtbl.t;
  mutex : Mutex.t;
  published : Condition.t;
  mutable tick : int;
  mutable ready_count : int;
  hits : Metrics.counter;
  misses : Metrics.counter;
  evictions : Metrics.counter;
  invalidations : Metrics.counter;
  events : Events.t;
}

let create ?obs ?(capacity = 32) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  let reg = match obs with Some r -> r | None -> Metrics.create () in
  {
    capacity;
    table = Hashtbl.create 64;
    mutex = Mutex.create ();
    published = Condition.create ();
    tick = 0;
    ready_count = 0;
    hits = Metrics.counter reg "serve.cache.hits";
    misses = Metrics.counter reg "serve.cache.misses";
    evictions = Metrics.counter reg "serve.cache.evictions";
    invalidations = Metrics.counter reg "serve.cache.invalidations";
    events = Metrics.events reg;
  }

let emit t ?(level = Events.Debug) name fields =
  Events.emit ~level t.events ~component:"serve" ~name fields

let capacity t = t.capacity

(* Callers hold the lock. *)
let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

(* Evict least-recently-used [Ready] entries until the cache fits.
   [Building] markers are never evicted — a waiter is parked on them.
   Callers hold the lock. *)
let enforce_capacity t =
  while t.ready_count > t.capacity do
    let victim = ref None in
    Hashtbl.iter
      (fun k e ->
        match e with
        | Building -> ()
        | Ready { tick; _ } -> (
          match !victim with
          | Some (_, best) when best <= tick -> ()
          | _ -> victim := Some (k, tick)))
      t.table;
    match !victim with
    | None -> t.ready_count <- 0 (* unreachable: ready_count counts Ready *)
    | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.ready_count <- t.ready_count - 1;
      Metrics.incr t.evictions;
      emit t "cache_evict" [ ("key", Events.fstr (key_label k)) ]
  done

let find_or_build ?span t key ~build =
  (* Trace attribution rides on the lookup events: a traced request's
     cache_hit/cache_miss carry its trace/request/span ids. *)
  let trace_fields =
    match span with
    | None -> []
    | Some sp -> Geomix_obs.Span.fields sp
  in
  Mutex.lock t.mutex;
  let rec await () =
    match Hashtbl.find_opt t.table key with
    | Some (Ready e) ->
      e.tick <- next_tick t;
      Metrics.incr t.hits;
      emit t "cache_hit"
        (("key", Events.fstr (key_label key)) :: trace_fields);
      Mutex.unlock t.mutex;
      (e.artifact, true)
    | Some Building ->
      Condition.wait t.published t.mutex;
      await ()
    | None -> (
      Hashtbl.replace t.table key Building;
      Metrics.incr t.misses;
      emit t "cache_miss"
        (("key", Events.fstr (key_label key)) :: trace_fields);
      Mutex.unlock t.mutex;
      match build key with
      | artifact ->
        Mutex.lock t.mutex;
        Hashtbl.replace t.table key (Ready { artifact; tick = next_tick t });
        t.ready_count <- t.ready_count + 1;
        enforce_capacity t;
        Condition.broadcast t.published;
        Mutex.unlock t.mutex;
        (artifact, false)
      | exception exn ->
        (* Withdraw the marker so waiters retry (one becomes the next
           builder) instead of parking forever on a failed build. *)
        Mutex.lock t.mutex;
        Hashtbl.remove t.table key;
        Condition.broadcast t.published;
        Mutex.unlock t.mutex;
        raise exn)
  in
  await ()

let find t key =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some (Ready e) ->
      e.tick <- next_tick t;
      Some e.artifact
    | Some Building | None -> None
  in
  Mutex.unlock t.mutex;
  r

(* Drop a published entry so a later request rebuilds it.  [Building]
   markers are left alone — the in-flight builder owns them and waiters
   are parked on the condition; the builder's publish supersedes us. *)
let invalidate t key =
  Mutex.lock t.mutex;
  let removed =
    match Hashtbl.find_opt t.table key with
    | Some (Ready _) ->
      Hashtbl.remove t.table key;
      t.ready_count <- t.ready_count - 1;
      Metrics.incr t.invalidations;
      true
    | Some Building | None -> false
  in
  Mutex.unlock t.mutex;
  if removed then
    emit t ~level:Events.Info "cache_invalidate"
      [ ("key", Events.fstr (key_label key)) ];
  removed

let length t =
  Mutex.lock t.mutex;
  let n = t.ready_count in
  Mutex.unlock t.mutex;
  n

let stats t =
  {
    hits = Metrics.counter_value t.hits;
    misses = Metrics.counter_value t.misses;
    evictions = Metrics.counter_value t.evictions;
  }

