(** Critical-path profiler: turn measured task spans plus a dependence
    graph into the attribution the paper's evaluation is narrated from —
    where the time of a run went (per kernel class, per precision, per
    worker), how long the inherent sequential chain is, and what adding
    workers could buy (the Fig 9-style analysis, for the {e real} executor
    rather than the gpusim model).

    The module is deliberately runtime-agnostic: a {!measure} is plain
    data, and {!analyze} takes the predecessor lists of the executed DAG
    as an array.  A measure is the one per-task record of a measured run:
    [Mp_cholesky.factorize ?profile] records it from the executor's task
    hook, {!Geomix_runtime.Trace.of_measures} derives the Chrome-JSON and
    Gantt view from it, and [Cholesky_dag]/[Geomix_verify.Dtd] both expose
    the graph shape {!analyze} needs. *)

type measure = {
  id : int;  (** task id in the executed DAG *)
  label : string;  (** ["GEMM(5,3,1)"]-style task name *)
  cls : string;  (** kernel class bucket, e.g. ["GEMM"] or ["conversion"] *)
  prec : string;  (** precision bucket, [""] when unknown *)
  worker : int;  (** resource that ran the task *)
  start : float;  (** seconds, relative to the run origin *)
  stop : float;
}

val class_of_label : string -> string
(** The label up to the first ['(']: ["GEMM(5,3,1)"] → ["GEMM"]. *)

(** {1 Collection} *)

type collector
(** A thread-safe append-only store of measures, fed by executor hooks. *)

val collector : unit -> collector
val record : collector -> measure -> unit
val measures : collector -> measure list
(** In record order. *)

(** {1 Analysis} *)

type bucket = { key : string; busy : float; tasks : int }

type worker_stat = { worker : int; wbusy : float; wtasks : int }

type t = {
  tasks : int;  (** distinct task ids measured *)
  spans : int;  (** measures analysed (> [tasks] under retry rounds) *)
  makespan : float;  (** latest measured [stop] *)
  busy : float;  (** total measured task time, all workers *)
  cp_length : float;  (** duration-weighted critical path through the DAG *)
  cp_chain : int list;  (** the task ids of one heaviest chain, in order *)
  cp_chain_labels : string list;
  cp_frac : float;  (** [cp_length / makespan]; 0 on an empty run *)
  slack : float array;
      (** per task id: how much the task could slip without lengthening the
          critical path (0 on the chain itself) *)
  by_class : bucket list;  (** busiest first; busy sums to [busy] *)
  by_precision : bucket list;  (** busiest first; busy sums to [busy] *)
  by_worker : worker_stat list;
      (** ascending worker index; idle of a worker is
          [makespan - wbusy] *)
  workers : int;  (** distinct workers observed (>= 1 on a non-empty run) *)
}

val analyze : preds:int list array -> measure list -> t
(** [analyze ~preds measures] — [preds.(id)] lists the DAG predecessors of
    task [id]; every measured id must be within [preds].  Tasks of the
    graph that were never measured contribute zero duration (the chain may
    pass through them).  Multiple measures of one id (retry rounds) add up.
    @raise Invalid_argument on a measure id outside the graph, a negative
    span, or a cyclic predecessor relation. *)

(** {1 What-if estimation}

    Classic critical-path/work bounds: with [w] workers the makespan can
    never beat [max cp_length (busy / w)].  Comparing the bound against the
    measured makespan says how much headroom the schedule left. *)

val lower_bound : t -> workers:int -> float
(** @raise Invalid_argument when [workers < 1]. *)

val predicted_speedup : t -> workers:int -> float
(** [makespan / lower_bound ~workers] — the most extra workers could
    possibly pay off; 1 when the run is already at a bound. *)

val to_json : t -> Jsonlite.t
(** Structured export for run reports (chain, buckets, bounds for 1, 2, 4
    and 8 workers). *)
