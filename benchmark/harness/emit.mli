(** Reconcile what a workload measured with what [BENCHMARK.json]
    declares. *)

val complete :
  Spec.t -> trace:bool -> Report.metric list -> (Report.metric list, string list) result
(** The declared metrics of the run's kind — end-to-end when untraced,
    per-layer when traced — in declaration order.  Every emitted metric
    must be declared for that kind, carry the declared unit and be
    finite; every end-to-end metric must be emitted.  A declared
    per-layer metric the workload does not measure (a layer its
    operations never reach) reports 0. *)
