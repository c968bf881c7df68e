(** What a workload run reports: named metrics with units, the run header,
    and the one-line result object the benchmark prints last. *)

type metric = { name : string; value : float; unit_ : string }

val metric : string -> string -> float -> metric
(** [metric name unit value]. *)

type outcome = {
  attempted : int;  (** timed operations *)
  failures : string list;
      (** one line per failed operation or failed check; their number is
          the result's [failed] *)
  metrics : metric list;
  header : (string * Geomix_obs.Jsonlite.t) list;
      (** workload sizes, op counts, sample counts *)
  tracer : Tracer.t;
}

val correct : outcome -> bool
(** No failed operation and no failed check. *)

val result_json : outcome -> metric list -> Geomix_obs.Jsonlite.t
(** [{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}]. *)

val run_header :
  workload:string -> seed:int -> seconds:float -> trace:bool -> wall_s:float ->
  (string * Geomix_obs.Jsonlite.t) list -> Geomix_obs.Jsonlite.t
(** The run header: seed, git commit, [nproc], OCaml version, the
    workload's own fields (sizes, op counts) and the process wall time.
    The commit is [GEOMIX_BENCH_COMMIT] when set, else the one [.git/HEAD]
    names in the working directory, else ["unknown"]. *)

val peak_rss_mb : unit -> float
(** [VmHWM] of this process in MiB; [nan] where [/proc] is unavailable. *)
