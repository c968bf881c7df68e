(** Dynamic Task Discovery — the second PaRSEC DSL the paper describes
    (Section III-B): tasks are inserted sequentially with declared data
    footprints, and the runtime derives the dataflow DAG from superscalar
    semantics (RAW, WAR and WAW dependencies on each datum), then executes
    it asynchronously.

    Data are identified by caller-chosen integer keys (e.g. packed tile
    indices).  Insertion order defines the sequential semantics the
    parallel execution must preserve.

    The factorization itself runs the static {!Geomix_runtime.Cholesky_dag};
    this module is the language the verify layer writes its test programs
    in ({!Gen}, {!Races}, {!Explore}). *)

type t
type task_id = int

val create : unit -> t
(** [create ()] builds an empty graph. *)

val insert :
  t -> name:string -> reads:int list -> writes:int list -> (unit -> unit) -> task_id
(** Append a task that reads and writes the given data keys.  Dependencies
    on earlier tasks are derived automatically:
    - a read depends on the datum's last writer (RAW);
    - a write depends on the last writer (WAW) and on every reader since
      (WAR), and becomes the new last writer. *)

val num_tasks : t -> int
val name : t -> task_id -> string

val footprint : t -> task_id -> int list * int list
(** The declared (reads, writes) keys of a task, sorted and deduplicated.
    {!Races} rederives the must-happen-before
    relation from footprints and cross-checks the derived DAG against it. *)

val execute_task : t -> task_id -> unit
(** Run one task body directly.  Virtual executors ({!Explore}) use this to replay the graph under a chosen
    linearization without a pool. *)

val predecessors : t -> task_id -> task_id list
(** Deduplicated, in insertion order. *)

val successors : t -> task_id -> task_id list
val in_degree : t -> int array

(** {1 Bytes-on-the-wire accounting}

    A task fetches each datum it reads from that datum's last writer: one
    RAW edge is one transfer, sized by [datum_bytes] (default 1 per datum —
    pass e.g. tile byte sizes from
    {!Geomix_precision.Fpformat.scalar_bytes}).  The volume is a pure
    function of the inserted program, so it is identical under every
    schedule the derived DAG admits — the property suites replay seeded
    interleavings to assert exactly that. *)

val task_in_bytes : ?datum_bytes:(int -> int) -> t -> task_id -> int
(** Bytes this task fetches over its RAW edges. *)

val comm_volume : ?datum_bytes:(int -> int) -> t -> int
(** Total bytes over all RAW edges of the program. *)

val execute : ?pool:Geomix_parallel.Pool.t -> t -> unit
(** Run every inserted task under the derived dependencies (serial pool by
    default) — a plain {!Geomix_parallel.Dag_exec.run} over the derived
    DAG.  The graph is reusable: executing twice runs the bodies twice.
    A raising body aborts the run and the exception propagates.
    Supervised execution (retry, integrity, observation) lives in
    [Geomix_core.Mp_cholesky.factorize]. *)

val critical_path_length : t -> int
(** Longest dependency chain, in tasks — the inherent sequential depth of
    the inserted program. *)

(** {1 The tile Cholesky as a DTD program} *)

val cholesky : nt:int -> (Geomix_runtime.Task.kind -> unit) -> t
(** Algorithm 1 on an [nt] × [nt] tile grid, inserted in right-looking
    order: POTRF(k), the TRSM(m,k) of column k, then each SYRK(m,k)
    followed by the GEMM(m,n,k) of row m.  Footprints come from
    {!Geomix_runtime.Task.read_tiles} and {!Geomix_runtime.Task.write_tile},
    with tile (i, j) keyed [i·nt + j]; task names are
    {!Geomix_runtime.Task.name}.  [body] runs each task. *)

val tile_kernel : Geomix_tile.Tiled.t -> Geomix_runtime.Task.kind -> unit
(** The FP64 BLAS body of a task, in place on the tiles of the matrix:
    [cholesky ~nt:(Tiled.nt a) (tile_kernel a)] factorizes [a] when run in
    any order the derived DAG admits. *)
