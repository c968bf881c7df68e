(** Execution traces (task begin/end per resource), the simulator-side
    equivalent of PaRSEC's instrumentation: occupancy plots (Fig 9) and
    power profiles (Fig 10) are computed from these records. *)

type event = {
  label : string;    (** task name, e.g. ["GEMM(5,3,1)"] *)
  resource : int;    (** device index the task ran on *)
  start : float;     (** seconds *)
  stop : float;      (** seconds *)
  tag : string;      (** free-form classification, e.g. the precision name *)
}

type t

val create : unit -> t
val add : t -> event -> unit
val events : t -> event list
(** In insertion order. *)

val of_measures : Geomix_obs.Profile.measure list -> t
(** The trace of a {e measured} run: one event per {!Geomix_obs.Profile}
    measure, in list order (label, worker as resource, start/stop, and the
    precision as tag), so real executions reuse the Chrome-JSON, Gantt and
    occupancy exporters unchanged. *)

val makespan : t -> float
(** Latest [stop] over all events (0 when empty). *)

val busy_time : t -> resource:int -> float
(** Total busy seconds of one resource. *)

val occupancy_series : t -> resources:int -> window:float -> (float * float) array
(** [(t, occ)] samples: fraction of [resources] busy during each window of
    the makespan — the Fig 9 measurement.  Returns [[||]] on an empty trace
    (zero makespan).  @raise Invalid_argument when [window <= 0.] (including
    NaN) or [resources <= 0]. *)

val utilisation : t -> resources:int -> float
(** Busy time over (makespan × resources). *)

val to_chrome_json : ?resource_name:(int -> string) -> t -> string
(** Serialise as Chrome trace-event JSON (load in chrome://tracing or
    Perfetto): one complete event per task, one thread row per resource,
    timestamps in microseconds. *)

val gantt : t -> resources:int -> width:int -> string
(** ASCII Gantt chart: one row per resource, [width] time columns; a cell
    shows the first letter of the dominating event's tag, '.' when idle.
    Returns [""] on an empty trace (zero makespan); [width = 1] degrades to
    a single busy/idle column per resource.
    @raise Invalid_argument when [resources <= 0] or [width <= 0]. *)
