(** Deterministic schedule exploration for task DAGs.

    [Pool] executes a DAG under whatever interleaving the OS scheduler
    happens to produce, so a test that runs a graph once through the pool
    observes a single schedule out of the exponentially many the
    superscalar semantics permits.  The virtual executors here replay the
    same [(num_tasks, in_degree, successors)] graph that [Dag_exec.run]
    consumes under seeded-random or exhaustive (bounded depth-first)
    interleavings of the ready set, asserting every explored linearization
    is a topological order.  Failures reproduce exactly from the printed
    seed — no thread scheduler involved. *)

type graph = {
  num_tasks : int;
  in_degree : int array;
  successors : int -> int list;
}

val graph :
  num_tasks:int -> in_degree:int array -> successors:(int -> int list) -> graph
(** @raise Invalid_argument on an in-degree length mismatch. *)

val of_dtd : Dtd.t -> graph
(** The derived DAG of a DTD program, in the executor's graph shape. *)

val predecessors : graph -> int list array
(** Inverted successor function; lists in ascending task order. *)

val check_acyclic : num_tasks:int -> successors:(int -> int list) -> bool
(** Kahn's algorithm on the successor function (recomputing in-degrees);
    [true] when the graph is a DAG. *)

val is_topological : graph -> int array -> bool
(** [true] iff the array is a permutation of all task ids in which every
    task precedes all of its successors. *)

val random_schedule : graph -> seed:int -> int array
(** The linearization obtained by resolving every ready-set choice with a
    xoshiro stream seeded with [seed] — deterministic per seed. *)

val sequential_schedule : graph -> int array
(** Always pick the smallest ready id.  For a DTD graph (edges go from
    lower to higher insertion id) this is exactly the sequential insertion
    order — the reference schedule. *)

val run_schedule : graph -> order:int array -> execute:(int -> unit) -> unit
(** Execute tasks in the given order after validating it is topological. *)

val run_random : graph -> seed:int -> execute:(int -> unit) -> int array
(** [run_schedule] under [random_schedule ~seed]; returns the order used. *)

val for_each_seed : ?seeds:int -> graph -> (seed:int -> int array -> unit) -> unit
(** Replay a check under [seeds] seeded interleavings (seed = 0, 1, ...,
    default 10).  Every schedule is asserted topological before the
    callback sees it. *)

type exploration = { explored : int; complete : bool }

val explore_systematic : ?limit:int -> graph -> f:(int array -> unit) -> exploration
(** Depth-first enumeration of every linearization of the DAG, calling [f]
    on each, truncated after [limit] (default 20_000) complete schedules.
    [complete] is [true] iff the whole space was visited. *)
