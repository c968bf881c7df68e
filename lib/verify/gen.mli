(** Shared QCheck generators for the property suites.

    Every generated object is described by a small integer {e spec} (sizes
    plus an Rng seed) and materialized by a pure [..._of_spec] function:
    QCheck prints and shrinks plain specs, every counterexample reproduces
    from its printed spec, and the slow systematic suites can rebuild the
    same objects outside QCheck. *)

(** {1 Random task DAGs} *)

type dag_spec = { tasks : int; density : float; seed : int }

val dag_of_spec : dag_spec -> Explore.graph
(** Edges only go from lower to higher id (the same shape [Dtd] derives),
    so the graph is acyclic by construction. *)

val dag_spec : ?max_tasks:int -> unit -> dag_spec QCheck.arbitrary

(** {1 Random DTD programs} *)

type op = { reads : int list; writes : int list }

type program_spec = { ops : int; keys : int; pseed : int }

val program_of_spec : program_spec -> op list

val dtd_of_program : ?body:(int -> unit) -> op list -> Dtd.t
(** Insert the program into a fresh DTD graph; [body] (given the op index)
    becomes the task body, so the same program can be replayed
    numerically. *)

val program_spec :
  ?max_ops:int -> ?max_keys:int -> unit -> program_spec QCheck.arbitrary

(** {1 Random SPD matrices} *)

type spd_spec = { n : int; mseed : int }

val spd_of_spec : spd_spec -> Geomix_linalg.Mat.t
(** Well-conditioned I + GGᵀ/n, G Gaussian. *)

val spd_spec : ?min_n:int -> ?max_n:int -> unit -> spd_spec QCheck.arbitrary

(** {1 Random kernel-precision maps} *)

type pmap_spec = { nt : int; kseed : int }

val pmap_of_spec : pmap_spec -> Geomix_core.Precision_map.t
(** Uniformly random precision per lower-triangle tile — adversarial
    inputs the norm rule would never produce. *)

val pmap_spec : ?max_nt:int -> unit -> pmap_spec QCheck.arbitrary

(** {1 Random execution traces} *)

type trace_spec = { resources : int; events_per_resource : int; tseed : int }

val trace_of_spec : trace_spec -> Geomix_runtime.Trace.t
(** Per-resource sequential events (random gaps and durations) — the shape
    a real executor produces: no two events overlap on one resource. *)

val trace_spec :
  ?max_resources:int -> ?max_events:int -> unit -> trace_spec QCheck.arbitrary

(** {1 Scalar formats} *)

val scalar : Geomix_precision.Fpformat.scalar QCheck.arbitrary
val precision : Geomix_precision.Fpformat.t QCheck.arbitrary
