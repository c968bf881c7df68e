(** Wire protocol of the model service: typed requests/replies, their
    {!Geomix_obs.Jsonlite} codecs, and length-prefixed framing.

    One message on the socket is a {e frame}: a 4-byte big-endian payload
    length followed by that many bytes of compact JSON.  A client sends one
    request frame and reads frames back until it sees the terminal [reply]
    frame for its request id; a long-running Monte-Carlo batch interleaves
    [progress] frames before the reply.

    {b Non-finite floats.}  An indefinite likelihood carries
    [loglik = -inf] and [log_det]/[quad_form] = [nan]; JSON has no
    representation for either, so {!Geomix_obs.Jsonlite} emits them as
    [null].  The [status] field is therefore the authoritative encoding —
    decoders reconstruct the canonical non-finite values from it, and a
    codec round-trip is exact on every reply the server produces. *)

module Covariance = Geomix_geostat.Covariance

(** {1 Requests} *)

type priority = High | Normal | Low

val priority_rank : priority -> int
(** 0 (high) … 2 (low) — the admission queue orders by rank, then FIFO. *)

val priority_name : priority -> string

(** The problem shape: everything a request needs to (re)construct its
    covariance problem deterministically.  [locs_seed] seeds the site
    generator, [data_seed] the measurement synthesis — two requests sharing
    every field but [data_seed] share all cacheable artifacts. *)
type spec = {
  n : int;            (** sites / matrix order *)
  nb : int;           (** tile size *)
  u_req : float;      (** accuracy target of the norm rule *)
  family : Covariance.family;
  sigma2 : float;
  beta : float;
  nu : float;
  nugget : float;
  locs_seed : int;
  data_seed : int;
}

val family_name : Covariance.family -> string

(** Body format of a [Stats] request/reply: the metrics-registry JSON
    snapshot ({!Geomix_obs.Metrics.to_json}) or the Prometheus text
    exposition ({!Geomix_obs.Expo.to_prometheus}). *)
type stats_format = Stats_json | Stats_prom

type payload =
  | Ping  (** health check — also the client's readiness barrier *)
  | Health
      (** readiness probe: inflight/queued/cache/recovery counters,
          answered before admission so it works while draining *)
  | Stats of stats_format
      (** full metrics-registry scrape, answered before admission like
          [Health] — the pull surface [geomix top] and Prometheus poll *)
  | Likelihood of spec
      (** one mixed-precision log-likelihood evaluation *)
  | Predict of { spec : spec; n_new : int; pred_seed : int }
      (** kriging at [n_new] fresh sites drawn from [pred_seed] *)
  | Mc_batch of { spec : spec; replicates : int }
      (** [replicates] likelihood replicas sharing one factorization,
          fanned out as a pool-level job with streamed progress *)
  | Shutdown  (** finish in-flight work and stop accepting *)

type request = {
  id : string;           (** client-chosen, echoed on every frame *)
  priority : priority;
  timeout_s : float option;
      (** per-request deadline, seconds from admission on the server's
          clock; expiry yields a [Deadline_exceeded] error reply *)
  payload : payload;
}

val op_name : payload -> string

(** {1 Replies} *)

type status =
  | Clean
  | Escalated of int
      (** factorization succeeded after [k] band→FP64 escalations — the
          precision map is degraded, so the artifact is never cached *)
  | Indefinite
  | Corrupt_recovered of int
      (** integrity guards detected and recovered [k] corrupt tiles; the
          numbers are bitwise-identical to a fault-free run *)

val status_name : status -> string
(** The wire tag: ["clean"], ["escalated"], ["indefinite"] or
    ["corrupt_recovered"]. *)

(** Snapshot returned by a [Health] request. *)
type health = {
  inflight : int;
  queued : int;
  served : int;
  draining : bool;
  brownout : bool;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  recovered : int;   (** requests whose status was [Corrupt_recovered] *)
  escalated : int;   (** requests whose status was [Escalated] *)
  shed : int;        (** requests shed by the brown-out breaker *)
}

type error_code =
  | Saturated          (** admission queue full — the 429 of the service *)
  | Deadline_exceeded
  | Bad_request
  | Internal

val error_code_name : error_code -> string

type reply =
  | Pong
  | Health_r of health
  | Stats_r of { format : stats_format; body : string }
      (** the rendered registry snapshot in the requested format *)
  | Likelihood_r of {
      loglik : float;
      log_det : float;
      quad_form : float;
      status : status;
      cache_hit : bool;
    }
  | Predict_r of { mean : float array; variance : float array; cache_hit : bool }
  | Mc_r of {
      logliks : float array;  (** per replicate, [-inf] when indefinite *)
      mean_loglik : float;
      status : status;
      cache_hit : bool;
    }
  | Shutdown_r
  | Error_r of { code : error_code; message : string }

(** Per-request telemetry footer attached to the terminal reply frame of
    a traced request (under a ["telemetry"] key on the wire — untraced
    clients and old decoders are unaffected): the request's
    {!Geomix_obs.Span.summary} (bytes moved STC vs FP64-equivalent, by
    transfer precision, tasks/retries, queue/busy time) plus the derived
    quantities the server computes at reply time. *)
type footer = {
  f_span : Geomix_obs.Span.summary;
  f_energy_j : float;  (** modeled energy of the request's execution, J *)
  f_cp_s : float;      (** critical-path length of the task DAG, s *)
  f_wall_s : float;    (** admission-to-reply wall time, s *)
  f_cache_hit : bool;
  f_sdc_detected : int;
  f_sdc_recovered : int;
  f_status : string;   (** {!status_name} of the carried reply *)
}

type frame =
  | Progress of { id : string; completed : int; total : int }
  | Reply of { id : string; reply : reply; footer : footer option }

(** {1 Codecs} *)

val request_to_json : request -> Geomix_obs.Jsonlite.t
val request_of_json : Geomix_obs.Jsonlite.t -> (request, string) result

val frame_to_json : frame -> Geomix_obs.Jsonlite.t
val frame_of_json : Geomix_obs.Jsonlite.t -> (frame, string) result

(** {1 Framing} *)

val max_frame_bytes : int
(** 16 MiB — frames beyond this are refused on both ends. *)

val write_frame : out_channel -> Geomix_obs.Jsonlite.t -> unit
(** Emit one frame (flushes).  @raise Invalid_argument on an oversized
    payload. *)

val read_frame : in_channel -> (Geomix_obs.Jsonlite.t, string) result
(** Read one frame; [Error "eof"] on clean end-of-stream before the
    header, [Error _] on truncation, oversize, a JSON parse failure or an
    I/O error on the stream (e.g. a connection reset) — never raises on
    stream damage. *)

val frame_to_string : Geomix_obs.Jsonlite.t -> string
(** The exact byte sequence {!write_frame} would emit — for tests and
    in-memory transports. *)
