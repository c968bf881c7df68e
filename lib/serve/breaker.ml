module Metrics = Geomix_obs.Metrics
module Events = Geomix_obs.Events

type config = {
  window : int;
  min_samples : int;
  queue_high : float;
  queue_low : float;
  miss_high : float;
  miss_low : float;
  hold_s : float;
  mc_chunk : int;
}

let default_config =
  {
    window = 32;
    min_samples = 8;
    queue_high = 0.75;
    queue_low = 0.25;
    miss_high = 0.5;
    miss_low = 0.1;
    hold_s = 1.0;
    mc_chunk = 4;
  }

type state = Closed | Open

(* A fixed-capacity ring of float samples with a running sum, so the
   sliding-window mean is O(1) per observation. *)
type ring = {
  buf : float array;
  mutable len : int;
  mutable next : int;
  mutable sum : float;
}

let ring n = { buf = Array.make n 0.; len = 0; next = 0; sum = 0. }

let ring_push r v =
  if r.len < Array.length r.buf then begin
    r.buf.(r.next) <- v;
    r.len <- r.len + 1;
    r.sum <- r.sum +. v
  end
  else begin
    r.sum <- r.sum -. r.buf.(r.next) +. v;
    r.buf.(r.next) <- v
  end;
  r.next <- (r.next + 1) mod Array.length r.buf

let ring_mean r = if r.len = 0 then 0. else r.sum /. float_of_int r.len

let ring_clear r =
  r.len <- 0;
  r.next <- 0;
  r.sum <- 0.

type t = {
  config : config;
  now : unit -> float;
  mutex : Mutex.t;
  queue : ring;
  misses : ring;
  mutable state : state;
  mutable tripped_at : float;
  mutable trips : int;
  m_trips : Metrics.counter option;
  m_open : Metrics.gauge option;
  m_queue_mean : Metrics.gauge option;
  m_miss_mean : Metrics.gauge option;
  events : Events.t option;
}

let validate c =
  if c.window < 1 then invalid_arg "Breaker.create: window must be >= 1";
  if c.min_samples < 1 then invalid_arg "Breaker.create: min_samples must be >= 1";
  if c.mc_chunk < 1 then invalid_arg "Breaker.create: mc_chunk must be >= 1";
  if c.queue_low > c.queue_high then
    invalid_arg "Breaker.create: queue_low must be <= queue_high";
  if c.miss_low > c.miss_high then
    invalid_arg "Breaker.create: miss_low must be <= miss_high";
  if c.hold_s < 0. then invalid_arg "Breaker.create: hold_s must be >= 0"

let create ?obs ?(config = default_config) ~now () =
  validate config;
  {
    config;
    now;
    mutex = Mutex.create ();
    queue = ring config.window;
    misses = ring config.window;
    state = Closed;
    tripped_at = neg_infinity;
    trips = 0;
    m_trips = Option.map (fun r -> Metrics.counter r "serve.brownout_trips") obs;
    m_open = Option.map (fun r -> Metrics.gauge r "serve.brownout") obs;
    m_queue_mean =
      Option.map (fun r -> Metrics.gauge r "serve.brownout_queue_mean") obs;
    m_miss_mean =
      Option.map (fun r -> Metrics.gauge r "serve.brownout_miss_mean") obs;
    events = Option.map Metrics.events obs;
  }

let config t = t.config

let emit t name fields =
  match t.events with
  | None -> ()
  | Some ev -> Events.emit ~level:Events.Warn ev ~component:"serve" ~name fields

let set_open_gauge t v =
  match t.m_open with None -> () | Some g -> Metrics.set g v

(* Lock held.  Re-evaluate the state against the window means.  Trip on
   either signal crossing its high-water mark; recover only when the hold
   time has elapsed AND both signals sit at or below their low-water marks
   — the hysteresis that keeps a saturated server from flapping. *)
let update_locked t =
  let qm = ring_mean t.queue and mm = ring_mean t.misses in
  (* Export the window means the trip decisions are made from — an
     operator watching the scrape sees the same signals the breaker
     sees. *)
  (match t.m_queue_mean with None -> () | Some g -> Metrics.set g qm);
  (match t.m_miss_mean with None -> () | Some g -> Metrics.set g mm);
  match t.state with
  | Closed ->
    let q_trip =
      t.queue.len >= t.config.min_samples && qm >= t.config.queue_high
    in
    let m_trip =
      t.misses.len >= t.config.min_samples && mm >= t.config.miss_high
    in
    if q_trip || m_trip then begin
      t.state <- Open;
      t.tripped_at <- t.now ();
      t.trips <- t.trips + 1;
      (match t.m_trips with None -> () | Some c -> Metrics.incr c);
      set_open_gauge t 1.;
      emit t "brownout_trip"
        [
          ("queue_mean", Events.fnum qm);
          ("miss_rate", Events.fnum mm);
          ("trips", Events.fint t.trips);
        ]
    end
  | Open ->
    if
      t.now () -. t.tripped_at >= t.config.hold_s
      && qm <= t.config.queue_low
      && mm <= t.config.miss_low
    then begin
      t.state <- Closed;
      (* A fresh window after recovery: stale saturation samples must not
         re-trip the breaker on the first post-recovery observation. *)
      ring_clear t.queue;
      ring_clear t.misses;
      set_open_gauge t 0.;
      emit t "brownout_recover"
        [ ("queue_mean", Events.fnum qm); ("miss_rate", Events.fnum mm) ]
    end

let note_queue t ~frac =
  Mutex.lock t.mutex;
  ring_push t.queue (Float.max 0. (Float.min 1. frac));
  update_locked t;
  Mutex.unlock t.mutex

let note_outcome t ~missed =
  Mutex.lock t.mutex;
  ring_push t.misses (if missed then 1. else 0.);
  update_locked t;
  Mutex.unlock t.mutex

let state t =
  Mutex.lock t.mutex;
  (* Time alone may satisfy the recovery condition; re-check so readers
     never see a stale Open after the window has gone quiet. *)
  update_locked t;
  let s = t.state in
  Mutex.unlock t.mutex;
  s

let tripped t = state t = Open

let trips t =
  Mutex.lock t.mutex;
  let n = t.trips in
  Mutex.unlock t.mutex;
  n

let mc_chunk t ~replicates =
  if replicates < 1 then replicates
  else if tripped t then min replicates t.config.mc_chunk
  else replicates
