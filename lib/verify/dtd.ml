module Pool = Geomix_parallel.Pool
module Dag_exec = Geomix_parallel.Dag_exec
module Task = Geomix_runtime.Task
module Blas = Geomix_linalg.Blas
module Tiled = Geomix_tile.Tiled

type task_id = int

type task = {
  name : string;
  body : unit -> unit;
  reads : int list; (* declared footprint, sorted and deduplicated *)
  writes : int list;
  raw_keys : int list; (* data fetched over a RAW edge, in read order *)
  mutable preds : task_id list; (* reverse insertion order while building *)
  mutable succs : task_id list;
  mutable indeg : int;
}

type datum_state = {
  mutable last_writer : task_id option;
  mutable readers_since : task_id list;
}

type t = {
  mutable tasks : task array;
  mutable count : int;
  data : (int, datum_state) Hashtbl.t;
}

let create () = { tasks = [||]; count = 0; data = Hashtbl.create 64 }

let datum t key =
  match Hashtbl.find_opt t.data key with
  | Some d -> d
  | None ->
    let d = { last_writer = None; readers_since = [] } in
    Hashtbl.add t.data key d;
    d

let grow t task =
  if t.count = Array.length t.tasks then begin
    let cap = Stdlib.max 16 (2 * Array.length t.tasks) in
    let tasks = Array.make cap task in
    Array.blit t.tasks 0 tasks 0 t.count;
    t.tasks <- tasks
  end

let add_dep t ~on ~target =
  let tgt = t.tasks.(target) and src = t.tasks.(on) in
  if on <> target && not (List.mem on tgt.preds) then begin
    tgt.preds <- on :: tgt.preds;
    src.succs <- target :: src.succs;
    tgt.indeg <- tgt.indeg + 1
  end

let insert t ~name ~reads ~writes body =
  let id = t.count in
  let reads = List.sort_uniq compare reads in
  let writes = List.sort_uniq compare writes in
  (* RAW edges are the data that actually travels: each read of a datum
     with a live writer is one transfer of that datum (a write-only access
     overwrites without fetching). *)
  let raw_keys = List.filter (fun key -> (datum t key).last_writer <> None) reads in
  let task = { name; body; reads; writes; raw_keys; preds = []; succs = []; indeg = 0 } in
  grow t task;
  t.tasks.(t.count) <- task;
  t.count <- t.count + 1;
  List.iter
    (fun key ->
      let d = datum t key in
      (match d.last_writer with Some w -> add_dep t ~on:w ~target:id | None -> ());
      d.readers_since <- id :: d.readers_since)
    reads;
  List.iter
    (fun key ->
      let d = datum t key in
      (match d.last_writer with Some w -> add_dep t ~on:w ~target:id | None -> ());
      List.iter (fun r -> add_dep t ~on:r ~target:id) d.readers_since;
      d.last_writer <- Some id;
      d.readers_since <- [])
    writes;
  id

let num_tasks t = t.count

let check_id t id = if id < 0 || id >= t.count then invalid_arg "Dtd: bad task id"

let name t id =
  check_id t id;
  t.tasks.(id).name

(* Declared (reads, writes) footprint, as normalized at insertion.  The
   verify layer rederives the must-happen-before relation from this and
   cross-checks it against the edges [insert] actually created. *)
let footprint t id =
  check_id t id;
  (t.tasks.(id).reads, t.tasks.(id).writes)

(* Run one task body directly.  Virtual executors (Explore) use this to
   replay the graph under a chosen linearization without a pool. *)
let execute_task t id =
  check_id t id;
  t.tasks.(id).body ()

(* Bytes-on-the-wire accounting.  A task fetches every datum it reads from
   that datum's last writer (one RAW edge = one transfer), so the volume is
   a pure function of the inserted program — independent of the schedule
   the executor happens to produce, which the property suites assert. *)

let default_datum_bytes _ = 1

let task_in_bytes ?(datum_bytes = default_datum_bytes) t id =
  check_id t id;
  List.fold_left (fun acc key -> acc + datum_bytes key) 0 t.tasks.(id).raw_keys

let comm_volume ?(datum_bytes = default_datum_bytes) t =
  let acc = ref 0 in
  for id = 0 to t.count - 1 do
    acc := !acc + task_in_bytes ~datum_bytes t id
  done;
  !acc

let predecessors t id =
  check_id t id;
  List.rev t.tasks.(id).preds

let successors t id =
  check_id t id;
  List.rev t.tasks.(id).succs

let in_degree t = Array.init t.count (fun id -> t.tasks.(id).indeg)

let execute ?pool t =
  let run pool =
    Dag_exec.run ~pool ~num_tasks:t.count ~in_degree:(in_degree t)
      ~successors:(fun id -> t.tasks.(id).succs)
      ~execute:(fun id -> t.tasks.(id).body ())
      ()
  in
  match pool with Some pool -> run pool | None -> Pool.with_pool ~num_workers:0 run

let critical_path_length t =
  (* Insertion order is a topological order: preds always have smaller ids. *)
  let depth = Array.make (Stdlib.max t.count 1) 0 in
  for id = 0 to t.count - 1 do
    let d =
      List.fold_left (fun acc p -> Stdlib.max acc (depth.(p) + 1)) 1 t.tasks.(id).preds
    in
    depth.(id) <- d
  done;
  if t.count = 0 then 0 else Array.fold_left Stdlib.max 0 (Array.sub depth 0 t.count)

let cholesky ~nt body =
  let g = create () in
  let key (i, j) = (i * nt) + j in
  let add kind =
    ignore
      (insert g ~name:(Task.name kind)
         ~reads:(List.map key (Task.read_tiles kind))
         ~writes:[ key (Task.write_tile kind) ]
         (fun () -> body kind))
  in
  for k = 0 to nt - 1 do
    add (Task.Potrf k);
    for m = k + 1 to nt - 1 do
      add (Task.Trsm (m, k))
    done;
    for m = k + 1 to nt - 1 do
      add (Task.Syrk (m, k));
      for n = k + 1 to m - 1 do
        add (Task.Gemm (m, n, k))
      done
    done
  done;
  g

let tile_kernel a = function
  | Task.Potrf k -> Blas.potrf_lower (Tiled.tile a k k)
  | Task.Trsm (m, k) -> Blas.trsm_right_lower_trans ~l:(Tiled.tile a k k) (Tiled.tile a m k)
  | Task.Syrk (m, k) ->
    Blas.syrk_lower ~alpha:(-1.) (Tiled.tile a m k) ~beta:1. (Tiled.tile a m m)
  | Task.Gemm (m, n, k) ->
    Blas.gemm_nt ~alpha:(-1.) (Tiled.tile a m k) (Tiled.tile a n k) ~beta:1. (Tiled.tile a m n)
