(* Deterministic schedule exploration for task DAGs.

   [Pool] executes a DAG under whatever interleaving the OS scheduler
   happens to produce, so a test that runs a graph once through the pool
   observes a single schedule out of the exponentially many the superscalar
   semantics permits.  The virtual executors below replay the same
   [(num_tasks, in_degree, successors)] graph that [Dag_exec.run] consumes
   under seeded-random or exhaustive (bounded depth-first) interleavings of
   the ready set.  Every explored linearization is checked to be a
   topological order, and any failing invariant can be reproduced exactly
   from the printed seed — no thread scheduler involved. *)

module Rng = Geomix_util.Rng

type graph = {
  num_tasks : int;
  in_degree : int array;
  successors : int -> int list;
}

let graph ~num_tasks ~in_degree ~successors =
  if Array.length in_degree <> num_tasks then
    invalid_arg "Explore.graph: in_degree length mismatch";
  { num_tasks; in_degree; successors }

let of_dtd g =
  {
    num_tasks = Dtd.num_tasks g;
    in_degree = Dtd.in_degree g;
    successors = Dtd.successors g;
  }

let predecessors g =
  Geomix_parallel.Dag_exec.predecessors ~num_tasks:g.num_tasks ~successors:g.successors

let check_acyclic ~num_tasks ~successors =
  let indeg = Array.make num_tasks 0 in
  for id = 0 to num_tasks - 1 do
    List.iter (fun s -> indeg.(s) <- indeg.(s) + 1) (successors id)
  done;
  let queue = Queue.create () in
  Array.iteri (fun id d -> if d = 0 then Queue.push id queue) indeg;
  let visited = ref 0 in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    incr visited;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.push s queue)
      (successors id)
  done;
  !visited = num_tasks

(* A linearization is valid iff it is a permutation of 0..num_tasks-1 in
   which every task precedes all of its successors. *)
let is_topological g order =
  Array.length order = g.num_tasks
  && begin
       let pos = Array.make g.num_tasks (-1) in
       let injective = ref true in
       Array.iteri
         (fun i id ->
           if id < 0 || id >= g.num_tasks || pos.(id) >= 0 then injective := false
           else pos.(id) <- i)
         order;
       !injective
       &&
       let respects = ref true in
       for id = 0 to g.num_tasks - 1 do
         List.iter (fun s -> if pos.(s) <= pos.(id) then respects := false) (g.successors id)
       done;
       !respects
     end

(* One pass of the virtual executor.  [pick ready n] selects an index in
   [0, n) of the ready array; the choice policy is the only source of
   nondeterminism, so a deterministic [pick] yields a deterministic
   schedule. *)
let schedule_with ~pick g =
  let counters = Array.copy g.in_degree in
  let ready = Array.make (Stdlib.max 1 g.num_tasks) 0 in
  let nready = ref 0 in
  let push id =
    ready.(!nready) <- id;
    incr nready
  in
  Array.iteri (fun id d -> if d = 0 then push id) counters;
  let order = Array.make g.num_tasks (-1) in
  let filled = ref 0 in
  while !nready > 0 do
    let i = pick ready !nready in
    assert (i >= 0 && i < !nready);
    let id = ready.(i) in
    decr nready;
    ready.(i) <- ready.(!nready);
    order.(!filled) <- id;
    incr filled;
    List.iter
      (fun s ->
        counters.(s) <- counters.(s) - 1;
        if counters.(s) = 0 then push s)
      (g.successors id)
  done;
  if !filled <> g.num_tasks then
    invalid_arg "Explore: not all tasks became ready (cyclic graph?)";
  order

let random_schedule g ~seed =
  let rng = Rng.create ~seed in
  schedule_with g ~pick:(fun _ n -> Rng.int rng n)

(* Always pick the smallest ready id: for a DTD graph (edges go from lower
   to higher insertion id) this is exactly the sequential insertion order,
   the reference schedule every other linearization must be equivalent to. *)
let sequential_schedule g =
  schedule_with g ~pick:(fun ready n ->
    let best = ref 0 in
    for i = 1 to n - 1 do
      if ready.(i) < ready.(!best) then best := i
    done;
    !best)

let run_schedule g ~order ~execute =
  if not (is_topological g order) then
    invalid_arg "Explore.run_schedule: order is not a topological order";
  Array.iter execute order

let run_random g ~seed ~execute =
  let order = random_schedule g ~seed in
  run_schedule g ~order ~execute;
  order

(* Replay [f] under [seeds] seeded interleavings (seed = 0, 1, ...).  Each
   schedule is asserted to be a topological order before [f] sees it; a
   failure inside [f] should mention [seed] so the exact interleaving can
   be rebuilt with [random_schedule ~seed]. *)
let for_each_seed ?(seeds = 10) g f =
  for seed = 0 to seeds - 1 do
    let order = random_schedule g ~seed in
    if not (is_topological g order) then
      failwith (Printf.sprintf "Explore: seed %d produced a non-topological schedule" seed);
    f ~seed order
  done

type exploration = { explored : int; complete : bool }

(* Systematic bounded-DFS enumeration: visit every linearization of the
   DAG (i.e. every maximal sequence of ready-set choices) in depth-first
   order, calling [f] on each, stopping after [limit] complete schedules.
   State is mutated in place with explicit undo, so exploration is
   allocation-light even for graphs with many linear extensions. *)
let explore_systematic ?(limit = 20_000) g ~f =
  let counters = Array.copy g.in_degree in
  let ready = Array.make (Stdlib.max 1 g.num_tasks) 0 in
  let order = Array.make g.num_tasks (-1) in
  let explored = ref 0 and truncated = ref false in
  let nready0 = ref 0 in
  Array.iteri
    (fun id d ->
      if d = 0 then begin
        ready.(!nready0) <- id;
        incr nready0
      end)
    counters;
  let rec dfs depth nready =
    if !explored >= limit then truncated := true
    else if depth = g.num_tasks then begin
      incr explored;
      f (Array.copy order)
    end
    else begin
      if nready = 0 then
        invalid_arg "Explore: not all tasks became ready (cyclic graph?)";
      let i = ref 0 in
      while !i < nready && not !truncated do
        let id = ready.(!i) in
        (* Choose ready.(i): swap-remove it, then append the successors it
           unblocks at the vacated tail. *)
        ready.(!i) <- ready.(nready - 1);
        order.(depth) <- id;
        let pushed = ref 0 in
        List.iter
          (fun s ->
            counters.(s) <- counters.(s) - 1;
            if counters.(s) = 0 then begin
              ready.(nready - 1 + !pushed) <- s;
              incr pushed
            end)
          (g.successors id);
        dfs (depth + 1) (nready - 1 + !pushed);
        (* Undo: restore counters, then the two swapped slots. *)
        List.iter (fun s -> counters.(s) <- counters.(s) + 1) (g.successors id);
        ready.(nready - 1) <- ready.(!i);
        ready.(!i) <- id;
        incr i
      done
    end
  in
  dfs 0 !nready0;
  { explored = !explored; complete = not !truncated }
