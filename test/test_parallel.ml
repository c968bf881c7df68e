module Pool = Geomix_parallel.Pool
module Dag_exec = Geomix_parallel.Dag_exec
module Metrics = Geomix_obs.Metrics
module Rng = Geomix_util.Rng
module Explore = Geomix_verify.Explore

exception Boom

let with_pools f =
  (* Exercise both the serial degradation and a real multi-domain pool. *)
  List.iter (fun w -> Pool.with_pool ~num_workers:w f) [ 0; 2 ]

(* Every thunk runs under a job; these are the basic pool contracts, each
   exercised through one. *)

let test_submit_runs () =
  with_pools (fun pool ->
    let hits = Atomic.make 0 in
    let job = Pool.new_job pool in
    for _ = 1 to 50 do
      Pool.submit_job pool job (fun () -> Atomic.incr hits)
    done;
    Pool.join_job pool job;
    Alcotest.(check int) "all ran" 50 (Atomic.get hits))

let test_nested_submit () =
  with_pools (fun pool ->
    let hits = Atomic.make 0 in
    let job = Pool.new_job pool in
    Pool.submit_job pool job (fun () ->
      Atomic.incr hits;
      Pool.submit_job pool job (fun () -> Atomic.incr hits));
    Pool.join_job pool job;
    Alcotest.(check int) "nested ran" 2 (Atomic.get hits))

let test_exception_propagates () =
  List.iter
    (fun w ->
      let pool = Pool.create ~num_workers:w () in
      let job = Pool.new_job pool in
      Pool.submit_job pool job (fun () -> raise Boom);
      Alcotest.check_raises "re-raised" Boom (fun () -> Pool.join_job pool job);
      Pool.shutdown pool)
    [ 0; 2 ]

(* Stress the failure path: repeated rounds of raising tasks mixed with
   healthy ones.  Each round must re-raise, leak no worker domain, and
   leave the pool fully usable for the next round. *)
let test_raise_stress () =
  List.iter
    (fun w ->
      let pool = Pool.create ~num_workers:w () in
      let workers = Pool.num_workers pool in
      for round = 1 to 5 do
        let hits = Atomic.make 0 in
        let job = Pool.new_job pool in
        for i = 1 to 20 do
          Pool.submit_job pool job (fun () ->
            if i mod 4 = 0 then raise Boom else Atomic.incr hits)
        done;
        Alcotest.check_raises
          (Printf.sprintf "round %d re-raised" round)
          Boom
          (fun () -> Pool.join_job pool job);
        Alcotest.(check int)
          (Printf.sprintf "round %d workers intact" round)
          workers (Pool.num_workers pool);
        (* The pool must still run a clean batch after the failure. *)
        let after = Atomic.make 0 in
        let clean = Pool.new_job pool in
        for _ = 1 to 10 do
          Pool.submit_job pool clean (fun () -> Atomic.incr after)
        done;
        Pool.join_job pool clean;
        Alcotest.(check int)
          (Printf.sprintf "round %d pool usable after raise" round)
          10 (Atomic.get after)
      done;
      Pool.shutdown pool;
      (* Shutdown after a raising history must be clean and idempotent. *)
      Pool.shutdown pool)
    [ 0; 2 ]

let test_join_idempotent () =
  with_pools (fun pool ->
    let job = Pool.new_job pool in
    Pool.join_job pool job;
    Pool.join_job pool job)

(* A random layered DAG: edges only go from layer k to k+1, so it is
   acyclic by construction; execution must respect every edge. *)
let random_layered_dag rng ~layers ~width =
  let num = layers * width in
  let succs = Array.make num [] in
  let indeg = Array.make num 0 in
  for l = 0 to layers - 2 do
    for i = 0 to width - 1 do
      let src = (l * width) + i in
      for j = 0 to width - 1 do
        if Rng.float rng < 0.4 then begin
          let dst = ((l + 1) * width) + j in
          succs.(src) <- dst :: succs.(src);
          indeg.(dst) <- indeg.(dst) + 1
        end
      done
    done
  done;
  (num, succs, indeg)

let test_dag_exec_respects_dependencies () =
  List.iter
    (fun w ->
      Pool.with_pool ~num_workers:w (fun pool ->
        let rng = Rng.create ~seed:42 in
        let num, succs, indeg = random_layered_dag rng ~layers:6 ~width:8 in
        let finished = Array.make num false in
        let mutex = Mutex.create () in
        let violations = ref 0 in
        let preds = Array.make num [] in
        Array.iteri (fun src l -> List.iter (fun d -> preds.(d) <- src :: preds.(d)) l) succs;
        Dag_exec.run ~pool ~num_tasks:num ~in_degree:(Array.copy indeg)
          ~successors:(fun id -> succs.(id))
          ~execute:(fun id ->
            Mutex.lock mutex;
            List.iter (fun p -> if not finished.(p) then incr violations) preds.(id);
            finished.(id) <- true;
            Mutex.unlock mutex)
          ();
        Alcotest.(check int) "no dependency violations" 0 !violations;
        Alcotest.(check bool) "all finished" true (Array.for_all Fun.id finished)))
    [ 0; 3 ]

(* The same invariant under the virtual executor: replay the layered DAG
   under 10 seeded interleavings of the ready set — schedules the pool's
   OS-driven run may never produce. *)
let test_explorer_respects_dependencies () =
  let rng = Rng.create ~seed:42 in
  let num, succs, indeg = random_layered_dag rng ~layers:6 ~width:8 in
  let g =
    Explore.graph ~num_tasks:num ~in_degree:(Array.copy indeg) ~successors:(fun id ->
      succs.(id))
  in
  let preds = Explore.predecessors g in
  let finished = Array.make num false in
  Explore.for_each_seed ~seeds:10 g (fun ~seed order ->
    Array.fill finished 0 num false;
    Explore.run_schedule g ~order ~execute:(fun id ->
      List.iter
        (fun p ->
          if not finished.(p) then
            Alcotest.failf "seed %d: task %d ran before predecessor %d" seed id p)
        preds.(id);
      finished.(id) <- true);
    Alcotest.(check bool)
      (Printf.sprintf "all finished (seed %d)" seed)
      true
      (Array.for_all Fun.id finished))

let test_dag_exec_linear_chain_order () =
  Pool.with_pool ~num_workers:2 (fun pool ->
    let n = 200 in
    let order = ref [] in
    let mutex = Mutex.create () in
    Dag_exec.run ~pool ~num_tasks:n
      ~in_degree:(Array.init n (fun i -> if i = 0 then 0 else 1))
      ~successors:(fun id -> if id + 1 < n then [ id + 1 ] else [])
      ~execute:(fun id ->
        Mutex.lock mutex;
        order := id :: !order;
        Mutex.unlock mutex)
      ();
    Alcotest.(check (list int)) "strict order" (List.init n (fun i -> n - 1 - i)) !order)

let test_dag_exec_error () =
  Pool.with_pool ~num_workers:0 (fun pool ->
    Alcotest.check_raises "execute error propagates" Boom (fun () ->
      Dag_exec.run ~pool ~num_tasks:3
        ~in_degree:[| 0; 1; 1 |]
        ~successors:(fun id -> if id < 2 then [ id + 1 ] else [])
        ~execute:(fun id -> if id = 1 then raise Boom)
        ()))

(* Two runs without [?job] share one pool; one of them fails.  Each run
   has its own private job, so the healthy run executes every task exactly
   once and returns normally, and the failing run re-raises its own
   exception.  The failing task waits until the healthy run's fan-out is
   queued, so the failure lands while that work is still pending. *)
let test_dag_exec_isolation_without_job () =
  Pool.with_pool ~num_workers:2 (fun pool ->
    let width = 40 in
    let fanned_out = Atomic.make false in
    let runs = Array.make (width + 1) 0 in
    let healthy () =
      Dag_exec.run ~pool ~num_tasks:(width + 1)
        ~in_degree:(Array.init (width + 1) (fun i -> if i = 0 then 0 else 1))
        ~successors:(fun id -> if id = 0 then List.init width (fun i -> i + 1) else [])
        ~execute:(fun id ->
          runs.(id) <- runs.(id) + 1;
          if id > 0 then begin
            Atomic.set fanned_out true;
            Unix.sleepf 0.001
          end)
        ()
    in
    let failing () =
      Dag_exec.run ~pool ~num_tasks:2 ~in_degree:[| 0; 1 |]
        ~successors:(fun id -> if id = 0 then [ 1 ] else [])
        ~execute:(fun id ->
          if id = 1 then begin
            while not (Atomic.get fanned_out) do Domain.cpu_relax () done;
            raise Boom
          end)
        ()
    in
    let outcome f () = match f () with () -> Ok () | exception e -> Error e in
    let results = Array.make 2 (Ok ()) in
    let threads =
      Array.mapi
        (fun i f -> Thread.create (fun () -> results.(i) <- outcome f ()) ())
        [| healthy; failing |]
    in
    Array.iter Thread.join threads;
    (match results.(0) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "healthy run raised %s" (Printexc.to_string e));
    (match results.(1) with
    | Error Boom -> ()
    | Ok () -> Alcotest.fail "failing run returned normally"
    | Error e -> Alcotest.failf "failing run raised %s" (Printexc.to_string e));
    Array.iteri
      (fun id n -> Alcotest.(check int) (Printf.sprintf "task %d ran once" id) 1 n)
      runs)

let test_check_acyclic () =
  Alcotest.(check bool) "chain is acyclic" true
    (Explore.check_acyclic ~num_tasks:5 ~successors:(fun id ->
       if id + 1 < 5 then [ id + 1 ] else []));
  Alcotest.(check bool) "2-cycle detected" false
    (Explore.check_acyclic ~num_tasks:2 ~successors:(fun id -> [ 1 - id ]))

(* {2 Job-scoped submission: the request server's isolation contract} *)

let test_job_completion () =
  with_pools (fun pool ->
    let a = Atomic.make 0 and b = Atomic.make 0 in
    let ja = Pool.new_job pool and jb = Pool.new_job pool in
    for _ = 1 to 20 do
      Pool.submit_job pool ja (fun () -> Atomic.incr a);
      Pool.submit_job pool jb (fun () -> Atomic.incr b)
    done;
    Pool.join_job pool ja;
    Alcotest.(check int) "job a complete at its own join" 20 (Atomic.get a);
    Pool.join_job pool jb;
    Alcotest.(check int) "job b complete" 20 (Atomic.get b))

let test_job_failure_isolated () =
  with_pools (fun pool ->
    let ok = Atomic.make 0 in
    let ja = Pool.new_job pool and jb = Pool.new_job pool in
    Pool.submit_job pool ja (fun () -> raise Boom);
    for _ = 1 to 10 do
      Pool.submit_job pool jb (fun () -> Atomic.incr ok)
    done;
    (match Pool.join_job pool ja with
    | () -> Alcotest.fail "job a swallowed its failure"
    | exception Boom -> ());
    (* The failing job must not poison its sibling sharing the pool. *)
    Pool.join_job pool jb;
    Alcotest.(check int) "sibling job unaffected" 10 (Atomic.get ok))

let test_job_skips_after_failure () =
  (* Deterministic on the serial pool: the queue drains in order, so the
     task submitted after the failing one is skipped, not run. *)
  Pool.with_pool ~num_workers:0 (fun pool ->
    let ran = Atomic.make 0 in
    let job = Pool.new_job pool in
    Pool.submit_job pool job (fun () -> raise Boom);
    Pool.submit_job pool job (fun () -> Atomic.incr ran);
    Pool.submit_job pool job (fun () -> Atomic.incr ran);
    (match Pool.join_job pool job with
    | () -> Alcotest.fail "failure not raised"
    | exception Boom -> ());
    Alcotest.(check int) "later tasks skipped" 0 (Atomic.get ran);
    Alcotest.(check int) "skips counted" 2 (Pool.job_skipped job))

(* A failed job's skipped thunks reach the [pool.cancelled] counter, and
   the skips are narrated on its event stream once for the job, not per thunk.  On
   two workers the failing thunk holds its worker until the other three
   are queued, while a thunk of another job holds the second worker, so
   nothing can start them before the failure is recorded. *)
let test_job_skips_counted () =
  List.iter
    (fun w ->
      let reg = Metrics.create () in
      let ring = Geomix_obs.Events.ring (Metrics.events reg) in
      let ran = Atomic.make 0 in
      let job =
        Pool.with_pool ~obs:reg ~num_workers:w (fun pool ->
          let release = Atomic.make false and queued = Atomic.make false in
          let blocker = Pool.new_job pool in
          let blocked = Atomic.make (w = 0) in
          if w > 0 then
            Pool.submit_job pool blocker (fun () ->
              Atomic.set blocked true;
              while not (Atomic.get release) do Domain.cpu_relax () done);
          while not (Atomic.get blocked) do Domain.cpu_relax () done;
          let job = Pool.new_job pool in
          Pool.submit_job pool job (fun () ->
            while w > 0 && not (Atomic.get queued) do Domain.cpu_relax () done;
            raise Boom);
          for _ = 1 to 3 do
            Pool.submit_job pool job (fun () -> Atomic.incr ran)
          done;
          Atomic.set queued true;
          (match Pool.join_job pool job with
          | () -> Alcotest.fail "failure not raised"
          | exception Boom -> ());
          Atomic.set release true;
          Pool.join_job pool blocker;
          job)
      in
      let cancelled =
        match Metrics.find (Metrics.snapshot reg) "pool.cancelled" with
        | Some (Metrics.Counter c) -> c
        | _ -> Alcotest.fail "pool.cancelled missing"
      in
      let narrated =
        List.filter_map
          (fun e ->
            if e.Geomix_obs.Events.name = "cancelled" then
              List.assoc_opt "count" e.Geomix_obs.Events.fields
            else None)
          (Geomix_obs.Events.ring_events ring)
      in
      let label s = Printf.sprintf "%s (%d workers)" s w in
      Alcotest.(check int) (label "queued thunks never ran") 0 (Atomic.get ran);
      Alcotest.(check int) (label "job_skipped") 3 (Pool.job_skipped job);
      Alcotest.(check int) (label "pool.cancelled") 3 cancelled;
      Alcotest.(check bool) (label "one narration with the count") true
        (narrated = [ Geomix_obs.Jsonlite.Num 3. ]))
    [ 0; 2 ]

let test_job_reusable_pool () =
  with_pools (fun pool ->
    (* After a failed job, the pool keeps serving fresh jobs. *)
    let j1 = Pool.new_job pool in
    Pool.submit_job pool j1 (fun () -> raise Boom);
    (match Pool.join_job pool j1 with () -> () | exception Boom -> ());
    let hits = Atomic.make 0 in
    let j2 = Pool.new_job pool in
    for _ = 1 to 8 do
      Pool.submit_job pool j2 (fun () -> Atomic.incr hits)
    done;
    Pool.join_job pool j2;
    Alcotest.(check int) "pool healthy after failed job" 8 (Atomic.get hits))

let test_job_sequential_reuse () =
  (* One job handle drives several waves in sequence — the request server's
     Monte-Carlo chunking under brown-out submits a wave, joins, then
     submits the next wave into the same handle.  join_job must leave the
     handle clean (pending count zero, error slot cleared) between waves,
     including after a wave that failed. *)
  with_pools (fun pool ->
    let hits = Atomic.make 0 in
    let job = Pool.new_job pool in
    for wave = 1 to 3 do
      for _ = 1 to 4 do
        Pool.submit_job pool job (fun () -> Atomic.incr hits)
      done;
      Pool.join_job pool job;
      Alcotest.(check int) "wave complete at its join" (4 * wave)
        (Atomic.get hits)
    done;
    Pool.submit_job pool job (fun () -> raise Boom);
    (match Pool.join_job pool job with
    | () -> Alcotest.fail "failed wave not raised"
    | exception Boom -> ());
    Pool.submit_job pool job (fun () -> Atomic.incr hits);
    Pool.join_job pool job;
    Alcotest.(check int) "handle clean after a failed wave" 13
      (Atomic.get hits))

let test_job_concurrent_joiners () =
  (* Two threads each drive their own job on one shared pool — the server's
     exact usage (one systhread per connection, one job per request). *)
  with_pools (fun pool ->
    let totals = Array.make 2 0 in
    let threads =
      Array.init 2 (fun i ->
        Thread.create
          (fun () ->
            let job = Pool.new_job pool in
            let c = Atomic.make 0 in
            for _ = 1 to 25 do
              Pool.submit_job pool job (fun () -> Atomic.incr c)
            done;
            Pool.join_job pool job;
            totals.(i) <- Atomic.get c)
          ())
    in
    Array.iter Thread.join threads;
    Alcotest.(check (list int)) "both jobs complete" [ 25; 25 ]
      (Array.to_list totals))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "submit runs" `Quick test_submit_runs;
          Alcotest.test_case "nested submit" `Quick test_nested_submit;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "raise stress" `Quick test_raise_stress;
          Alcotest.test_case "wait idempotent" `Quick test_join_idempotent;
        ] );
      ( "job",
        [
          Alcotest.test_case "completion" `Quick test_job_completion;
          Alcotest.test_case "failure isolated" `Quick test_job_failure_isolated;
          Alcotest.test_case "skips after failure" `Quick test_job_skips_after_failure;
          Alcotest.test_case "skipped thunks counted" `Quick test_job_skips_counted;
          Alcotest.test_case "pool reusable" `Quick test_job_reusable_pool;
          Alcotest.test_case "sequential reuse" `Quick test_job_sequential_reuse;
          Alcotest.test_case "concurrent joiners" `Quick test_job_concurrent_joiners;
        ] );
      ( "dag",
        [
          Alcotest.test_case "respects dependencies" `Quick test_dag_exec_respects_dependencies;
          Alcotest.test_case "explorer respects dependencies" `Quick
            test_explorer_respects_dependencies;
          Alcotest.test_case "linear chain order" `Quick test_dag_exec_linear_chain_order;
          Alcotest.test_case "error propagation" `Quick test_dag_exec_error;
          Alcotest.test_case "isolation without job" `Quick
            test_dag_exec_isolation_without_job;
          Alcotest.test_case "acyclicity check" `Quick test_check_acyclic;
        ] );
    ]
