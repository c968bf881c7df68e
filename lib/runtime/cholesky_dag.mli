(** Static DAG of the tile Cholesky factorization (Algorithm 1 of the
    paper) over an [nt] × [nt] tile grid.

    Tasks get dense integer ids so the graph never needs to be materialised:
    ids encode (class, parameters) arithmetically, and successor lists and
    in-degrees are computed from the dependence relations

    - POTRF(k)   ← SYRK(k, k−1)
    - TRSM(m,k)  ← POTRF(k), GEMM(m,k,k−1)
    - SYRK(m,k)  ← TRSM(m,k), SYRK(m,k−1)
    - GEMM(m,n,k)← TRSM(m,k), TRSM(n,k), GEMM(m,n,k−1)

    (the chain links on SYRK/GEMM serialise the accumulations into one tile,
    as a dataflow runtime must for an INOUT datum). *)

type t

val create : nt:int -> t

val nt : t -> int
val num_tasks : t -> int

val id_of : t -> Task.kind -> int
val kind_of : t -> int -> Task.kind
(** Inverse bijections between ids and task kinds. *)

val in_degree : t -> int array
(** Freshly allocated in-degree array (consumable by
    [Geomix_parallel.Dag_exec.run]). *)

val successors : t -> int -> int list

val critical_path_tasks : t -> int
(** Length (in tasks) of the POTRF→TRSM→(SYRK|GEMM)→POTRF critical path:
    [3·(nt−1) + 1] — the lower bound used to sanity-check simulated
    schedules. *)

val iter : t -> (int -> Task.kind -> unit) -> unit
(** Iterate over all tasks in id order. *)
