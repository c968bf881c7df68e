module Dtd = Geomix_verify.Dtd
module Task = Geomix_runtime.Task
module Cholesky_dag = Geomix_runtime.Cholesky_dag
module Pool = Geomix_parallel.Pool
module Mat = Geomix_linalg.Mat
module Check = Geomix_linalg.Check
module Tiled = Geomix_tile.Tiled
module Rng = Geomix_util.Rng
module Explore = Geomix_verify.Explore

let test_raw_dependency () =
  let g = Dtd.create () in
  let w = Dtd.insert g ~name:"write" ~reads:[] ~writes:[ 1 ] (fun () -> ()) in
  let r = Dtd.insert g ~name:"read" ~reads:[ 1 ] ~writes:[] (fun () -> ()) in
  Alcotest.(check (list int)) "RAW edge" [ w ] (Dtd.predecessors g r);
  Alcotest.(check (list int)) "successor" [ r ] (Dtd.successors g w)

let test_war_dependency () =
  let g = Dtd.create () in
  let w0 = Dtd.insert g ~name:"w0" ~reads:[] ~writes:[ 1 ] (fun () -> ()) in
  let r = Dtd.insert g ~name:"r" ~reads:[ 1 ] ~writes:[] (fun () -> ()) in
  let w1 = Dtd.insert g ~name:"w1" ~reads:[] ~writes:[ 1 ] (fun () -> ()) in
  Alcotest.(check bool) "WAR edge r→w1" true (List.mem r (Dtd.predecessors g w1));
  Alcotest.(check bool) "WAW edge w0→w1" true (List.mem w0 (Dtd.predecessors g w1))

let test_waw_chain () =
  let g = Dtd.create () in
  let ids =
    List.init 5 (fun i ->
      Dtd.insert g ~name:(Printf.sprintf "w%d" i) ~reads:[] ~writes:[ 7 ] (fun () -> ()))
  in
  List.iteri
    (fun i id ->
      if i > 0 then
        Alcotest.(check (list int)) "chained" [ List.nth ids (i - 1) ] (Dtd.predecessors g id))
    ids;
  Alcotest.(check int) "critical path = chain" 5 (Dtd.critical_path_length g)

let test_independent_tasks () =
  let g = Dtd.create () in
  let a = Dtd.insert g ~name:"a" ~reads:[] ~writes:[ 1 ] (fun () -> ()) in
  let b = Dtd.insert g ~name:"b" ~reads:[] ~writes:[ 2 ] (fun () -> ()) in
  Alcotest.(check (list int)) "no deps a" [] (Dtd.predecessors g a);
  Alcotest.(check (list int)) "no deps b" [] (Dtd.predecessors g b);
  Alcotest.(check int) "depth 1" 1 (Dtd.critical_path_length g)

let test_concurrent_readers_allowed () =
  let g = Dtd.create () in
  let w = Dtd.insert g ~name:"w" ~reads:[] ~writes:[ 1 ] (fun () -> ()) in
  let r1 = Dtd.insert g ~name:"r1" ~reads:[ 1 ] ~writes:[] (fun () -> ()) in
  let r2 = Dtd.insert g ~name:"r2" ~reads:[ 1 ] ~writes:[] (fun () -> ()) in
  Alcotest.(check (list int)) "r1 deps only on w" [ w ] (Dtd.predecessors g r1);
  Alcotest.(check (list int)) "r2 deps only on w" [ w ] (Dtd.predecessors g r2);
  Alcotest.(check bool) "no reader-reader edge" true
    (not (List.mem r1 (Dtd.predecessors g r2)))

let test_execution_sequential_semantics () =
  (* Parallel execution must produce the value the sequential program
     produces, under any schedule.  The pool shows one OS-chosen schedule;
     the explorer then replays the same graph under 10 seeded
     interleavings, covering schedules the pool may never produce. *)
  let g = Dtd.create () in
  let cell = ref 0 in
  for _ = 1 to 50 do
    ignore (Dtd.insert g ~name:"incr" ~reads:[ 0 ] ~writes:[ 0 ] (fun () -> incr cell));
    ignore
      (Dtd.insert g ~name:"double" ~reads:[ 0 ] ~writes:[ 0 ] (fun () ->
         cell := !cell * 2))
  done;
  (* x ← 2(x+1) fifty times from 0 = 2^51 − 2. *)
  let expected = (1 lsl 51) - 2 in
  List.iter
    (fun workers ->
      cell := 0;
      Pool.with_pool ~num_workers:workers (fun pool -> Dtd.execute ~pool g);
      Alcotest.(check int)
        (Printf.sprintf "sequential semantics (%d workers)" workers)
        expected !cell)
    [ 0; 3 ];
  Explore.for_each_seed ~seeds:10 (Explore.of_dtd g) (fun ~seed order ->
    cell := 0;
    Array.iter (Dtd.execute_task g) order;
    Alcotest.(check int) (Printf.sprintf "sequential semantics (seed %d)" seed) expected !cell)

let test_graph_acyclic () =
  let rng = Rng.create ~seed:3 in
  let g = Dtd.create () in
  for _ = 1 to 200 do
    let reads = List.init (Rng.int rng 3) (fun _ -> Rng.int rng 10) in
    let writes = List.init (1 + Rng.int rng 2) (fun _ -> Rng.int rng 10) in
    ignore (Dtd.insert g ~name:"t" ~reads ~writes (fun () -> ()))
  done;
  Alcotest.(check bool) "acyclic" true
    (Explore.check_acyclic ~num_tasks:(Dtd.num_tasks g) ~successors:(Dtd.successors g))

let test_in_degree_consistency () =
  let rng = Rng.create ~seed:4 in
  let g = Dtd.create () in
  for _ = 1 to 100 do
    let reads = List.init (Rng.int rng 3) (fun _ -> Rng.int rng 6) in
    let writes = [ Rng.int rng 6 ] in
    ignore (Dtd.insert g ~name:"t" ~reads ~writes (fun () -> ()))
  done;
  let computed = Array.make (Dtd.num_tasks g) 0 in
  for id = 0 to Dtd.num_tasks g - 1 do
    List.iter (fun s -> computed.(s) <- computed.(s) + 1) (Dtd.successors g id)
  done;
  Alcotest.(check (array int)) "in-degree matches successors" computed (Dtd.in_degree g)

(* The decisive test: express Algorithm 1 through DTD insertion (the
   paper's "sequential task insertion in nested loops") and check that the
   numeric result matches the PTG-style Cholesky_dag execution exactly. *)
let build_cholesky_dtd a = Dtd.cholesky ~nt:(Tiled.nt a) (Dtd.tile_kernel a)

let test_cholesky_via_dtd () =
  let n = 96 and nb = 24 in
  let dense =
    Mat.init ~rows:n ~cols:n (fun i j ->
      (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))
  in
  let check_factorization a =
    Tiled.iter_lower a (fun ~i ~j tile -> if i = j then Mat.zero_upper tile);
    let l = Tiled.to_dense a in
    Mat.zero_upper l;
    Check.cholesky_residual ~a:dense ~l < 1e-13
  in
  let a = Tiled.of_dense ~nb dense in
  let g = build_cholesky_dtd a in
  (* Same task count as the PTG-style DAG. *)
  let dag = Cholesky_dag.create ~nt:(Tiled.nt a) in
  Alcotest.(check int) "task count" (Cholesky_dag.num_tasks dag) (Dtd.num_tasks g);
  Pool.with_pool ~num_workers:3 (fun pool -> Dtd.execute ~pool g);
  Alcotest.(check bool) "factorization correct (pool)" true (check_factorization a);
  (* Replay the same program under seeded interleavings: the bodies mutate
     the tiles, so each schedule factorizes a fresh copy of the matrix. *)
  for seed = 0 to 2 do
    let a = Tiled.of_dense ~nb dense in
    let g = build_cholesky_dtd a in
    ignore (Explore.run_random (Explore.of_dtd g) ~seed ~execute:(Dtd.execute_task g));
    Alcotest.(check bool)
      (Printf.sprintf "factorization correct (seed %d)" seed)
      true (check_factorization a)
  done

let prop_execution_order_valid =
  QCheck.Test.make ~name:"every pred finished before a task runs" ~count:30
    (QCheck.int_range 1 80)
    (fun ntasks ->
      let rng = Rng.create ~seed:ntasks in
      let g = Dtd.create () in
      let done_ = Array.make ntasks (Atomic.make false) in
      for i = 0 to ntasks - 1 do
        done_.(i) <- Atomic.make false
      done;
      let ok = Atomic.make true in
      for i = 0 to ntasks - 1 do
        let reads = List.init (Rng.int rng 2) (fun _ -> Rng.int rng 8) in
        let writes = [ Rng.int rng 8 ] in
        ignore
          (Dtd.insert g ~name:"t" ~reads ~writes (fun () ->
             List.iter
               (fun p -> if not (Atomic.get done_.(p)) then Atomic.set ok false)
               (Dtd.predecessors g i);
             Atomic.set done_.(i) true))
      done;
      Pool.with_pool ~num_workers:2 (fun pool -> Dtd.execute ~pool g);
      (* Replay the same graph under seeded interleavings — the explorer
         must uphold the same invariant on schedules the pool never took. *)
      Explore.for_each_seed ~seeds:5 (Explore.of_dtd g) (fun ~seed:_ order ->
        Array.iteri (fun i _ -> Atomic.set done_.(i) false) done_;
        Array.iter (Dtd.execute_task g) order);
      Atomic.get ok)

let () =
  Alcotest.run "dtd"
    [
      ( "dependence derivation",
        [
          Alcotest.test_case "RAW" `Quick test_raw_dependency;
          Alcotest.test_case "WAR" `Quick test_war_dependency;
          Alcotest.test_case "WAW chain" `Quick test_waw_chain;
          Alcotest.test_case "independent" `Quick test_independent_tasks;
          Alcotest.test_case "concurrent readers" `Quick test_concurrent_readers_allowed;
          Alcotest.test_case "acyclic" `Quick test_graph_acyclic;
          Alcotest.test_case "in-degree consistency" `Quick test_in_degree_consistency;
        ] );
      ( "execution",
        [
          Alcotest.test_case "sequential semantics" `Quick test_execution_sequential_semantics;
          Alcotest.test_case "cholesky via DTD" `Quick test_cholesky_via_dtd;
          QCheck_alcotest.to_alcotest prop_execution_order_valid;
        ] );
    ]
