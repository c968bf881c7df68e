(* Shared QCheck generators for the property suites.

   Every generated object is described by a small integer *spec* (sizes +
   an Rng seed) and materialized by a pure [..._of_spec] function.  That
   keeps QCheck printing/shrinking trivial (specs are just ints), makes
   every counterexample reproducible from its printed spec, and lets the
   slow systematic suites rebuild the same objects outside QCheck. *)

module Q = QCheck
module Rng = Geomix_util.Rng
module Fp = Geomix_precision.Fpformat
module Pm = Geomix_core.Precision_map
module Mat = Geomix_linalg.Mat
module Check = Geomix_linalg.Check
module Trace = Geomix_runtime.Trace

(* --- random task DAGs ----------------------------------------------- *)

(* Edges only go from lower to higher id, so the graph is acyclic by
   construction (the same shape [Dtd] derives). *)
type dag_spec = { tasks : int; density : float; seed : int }

let dag_of_spec { tasks; density; seed } =
  let rng = Rng.create ~seed in
  let succs = Array.make tasks [] in
  for a = 0 to tasks - 2 do
    for b = a + 1 to tasks - 1 do
      if Rng.float rng < density then succs.(a) <- b :: succs.(a)
    done;
    succs.(a) <- List.rev succs.(a)
  done;
  let in_degree = Array.make tasks 0 in
  Array.iter (List.iter (fun s -> in_degree.(s) <- in_degree.(s) + 1)) succs;
  Explore.graph ~num_tasks:tasks ~in_degree ~successors:(fun id -> succs.(id))

let dag_spec ?(max_tasks = 30) () =
  Q.make
    ~print:(fun { tasks; density; seed } ->
      Printf.sprintf "{ tasks = %d; density = %g; seed = %d }" tasks density seed)
    Q.Gen.(
      triple (int_range 1 max_tasks) (int_range 0 10) (int_range 0 1_000_000)
      >|= fun (tasks, d, seed) -> { tasks; density = float_of_int d /. 10.; seed })

(* --- random DTD programs -------------------------------------------- *)

type op = { reads : int list; writes : int list }

type program_spec = { ops : int; keys : int; pseed : int }

let program_of_spec { ops; keys; pseed } =
  let rng = Rng.create ~seed:pseed in
  List.init ops (fun _ ->
    let reads = List.init (Rng.int rng 3) (fun _ -> Rng.int rng keys) in
    (* Three quarters of the ops write somewhere; pure readers keep the
       reader-set bookkeeping honest. *)
    let writes =
      if Rng.int rng 4 = 0 then []
      else List.init (1 + Rng.int rng 2) (fun _ -> Rng.int rng keys)
    in
    { reads; writes })

(* Build the DTD graph of a program.  [body] (given the op index) becomes
   the task body, so the same program can be replayed numerically. *)
let dtd_of_program ?(body = fun _ -> ()) prog =
  let g = Dtd.create () in
  List.iteri
    (fun i { reads; writes } ->
      ignore
        (Dtd.insert g ~name:(Printf.sprintf "op%d" i) ~reads ~writes (fun () -> body i)))
    prog;
  g

let program_spec ?(max_ops = 40) ?(max_keys = 8) () =
  Q.make
    ~print:(fun { ops; keys; pseed } ->
      Printf.sprintf "{ ops = %d; keys = %d; pseed = %d }" ops keys pseed)
    Q.Gen.(
      triple (int_range 1 max_ops) (int_range 1 max_keys) (int_range 0 1_000_000)
      >|= fun (ops, keys, pseed) -> { ops; keys; pseed })

(* --- random SPD / covariance-like matrices --------------------------- *)

type spd_spec = { n : int; mseed : int }

let spd_of_spec { n; mseed } = Check.spd_random ~rng:(Rng.create ~seed:mseed) ~n

let spd_spec ?(min_n = 4) ?(max_n = 64) () =
  Q.make
    ~print:(fun { n; mseed } -> Printf.sprintf "{ n = %d; mseed = %d }" n mseed)
    Q.Gen.(
      pair (int_range min_n max_n) (int_range 0 1_000_000)
      >|= fun (n, mseed) -> { n; mseed })

(* --- random kernel-precision maps ------------------------------------ *)

type pmap_spec = { nt : int; kseed : int }

let pmap_of_spec { nt; kseed } =
  let rng = Rng.create ~seed:kseed in
  let all = Array.of_list Fp.all in
  Pm.of_fn ~nt (fun _ _ -> all.(Rng.int rng (Array.length all)))

let pmap_spec ?(max_nt = 12) () =
  Q.make
    ~print:(fun { nt; kseed } -> Printf.sprintf "{ nt = %d; kseed = %d }" nt kseed)
    Q.Gen.(
      pair (int_range 1 max_nt) (int_range 0 1_000_000)
      >|= fun (nt, kseed) -> { nt; kseed })

(* --- random execution traces ----------------------------------------- *)

(* Per-resource sequential events (random gaps and durations), the shape a
   real executor produces: no two events overlap on the same resource. *)
type trace_spec = { resources : int; events_per_resource : int; tseed : int }

let trace_of_spec { resources; events_per_resource; tseed } =
  let rng = Rng.create ~seed:tseed in
  let t = Trace.create () in
  for r = 0 to resources - 1 do
    let clock = ref 0. in
    for e = 0 to events_per_resource - 1 do
      let gap = Rng.uniform rng ~lo:0. ~hi:0.5 in
      let dur = Rng.uniform rng ~lo:0.01 ~hi:1.0 in
      let start = !clock +. gap in
      let stop = start +. dur in
      clock := stop;
      Trace.add t
        { Trace.label = Printf.sprintf "r%d.e%d" r e; resource = r; start; stop; tag = "k" }
    done
  done;
  t

let trace_spec ?(max_resources = 4) ?(max_events = 8) () =
  Q.make
    ~print:(fun { resources; events_per_resource; tseed } ->
      Printf.sprintf "{ resources = %d; events_per_resource = %d; tseed = %d }" resources
        events_per_resource tseed)
    Q.Gen.(
      triple (int_range 1 max_resources) (int_range 0 max_events) (int_range 0 1_000_000)
      >|= fun (resources, events_per_resource, tseed) ->
      { resources; events_per_resource; tseed })

(* --- scalar formats --------------------------------------------------- *)

let scalar = Q.oneofl Fp.all_scalars

let precision = Q.oneofl Fp.all
