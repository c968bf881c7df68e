(** What every workload shares: the run configuration, the timed window,
    repeated set-up and the timing metrics. *)

type cfg = {
  seed : int;
  seconds : float;  (** length of the measured window *)
  trace : bool;
  smoke : bool;  (** tiny sizes, for the test suite *)
  setups : int;  (** set-up repetitions; [setup_s] is their median *)
  scratch : string;  (** private directory for store files and sockets *)
}

val now : unit -> float

val window : seconds:float -> (int -> 'a) -> ('a * float) array * float
(** [window ~seconds op] calls [op 0], [op 1], … until [seconds] have
    passed, timing each call; returns each result with its latency and
    the elapsed wall time of the whole window. *)

val window_staged :
  seconds:float -> prepare:(int -> 'p) -> finish:(int -> 'a -> 'b) -> (int -> 'p -> 'a) ->
  ('b * float) array * float
(** {!window} with per-op work outside the op timer: [prepare k] before
    and [finish k result] after each timed [op k p].  Their time is
    excluded from the window as well, so it counts toward neither the
    latency nor the elapsed time; [finish]'s value is what is kept. *)

val setup_repeated : int -> (unit -> 'a) -> teardown:('a -> unit) -> 'a * float
(** Runs the set-up [n] times (at least once), tearing down all but the
    last state; returns that state and the median set-up duration. *)

val timing :
  tail:float -> elapsed:float -> float array ->
  Report.metric list * (string * Geomix_obs.Jsonlite.t) list
(** From per-op latencies in seconds: [throughput_ops] (ops ÷ elapsed),
    [latency_p50_ms] and [latency_tail_ms] at the workload's [tail]
    percentile; and the header fields that state the sample count, the
    samples beyond the tail, the highest percentile the count supports
    ({!Quantile.tail_percentile}) and the latency at each percentile of
    {!Quantile.ladder}. *)

val rm_rf : string -> unit
