module Task = Geomix_runtime.Task
module Dag = Geomix_runtime.Cholesky_dag
module Trace = Geomix_runtime.Trace
module Dag_exec = Geomix_parallel.Dag_exec
module Fp = Geomix_precision.Fpformat

let test_task_names () =
  Alcotest.(check string) "potrf" "POTRF(2)" (Task.name (Task.Potrf 2));
  Alcotest.(check string) "gemm" "GEMM(5,3,1)" (Task.name (Task.Gemm (5, 3, 1)))

let test_task_footprints () =
  Alcotest.(check (pair int int)) "potrf writes" (3, 3) (Task.write_tile (Task.Potrf 3));
  Alcotest.(check (pair int int)) "syrk writes diag" (4, 4) (Task.write_tile (Task.Syrk (4, 1)));
  Alcotest.(check (list (pair int int))) "gemm reads" [ (5, 1); (3, 1) ]
    (Task.read_tiles (Task.Gemm (5, 3, 1)));
  Alcotest.(check (list (pair int int))) "trsm reads" [ (2, 2) ]
    (Task.read_tiles (Task.Trsm (4, 2)))

(* The task that produced a read tile in the same iteration is a direct
   predecessor in the Cholesky DAG: POTRF for TRSM's diagonal read, TRSM for
   GEMM's panel reads. *)
let test_producer_of_read () =
  let dag = Dag.create ~nt:6 in
  let preds =
    Dag_exec.predecessors ~num_tasks:(Dag.num_tasks dag) ~successors:(Dag.successors dag)
  in
  let producers kind =
    List.map (fun p -> Task.name (Dag.kind_of dag p)) preds.(Dag.id_of dag kind)
  in
  let has name kind = List.mem name (producers kind) in
  Alcotest.(check bool) "trsm ← potrf" true (has "POTRF(2)" (Task.Trsm (4, 2)));
  Alcotest.(check bool) "gemm A ← trsm" true (has "TRSM(5,1)" (Task.Gemm (5, 3, 1)));
  Alcotest.(check bool) "gemm B ← trsm" true (has "TRSM(3,1)" (Task.Gemm (5, 3, 1)))

let test_exec_precision () =
  let pmap _ _ = Fp.Fp16 in
  Alcotest.(check string) "trsm floors at fp32" "FP32"
    (Fp.name (Task.exec_precision ~kernel_precision:pmap (Task.Trsm (3, 1))));
  Alcotest.(check string) "gemm keeps fp16" "FP16"
    (Fp.name (Task.exec_precision ~kernel_precision:pmap (Task.Gemm (3, 2, 1))));
  let pmap64 _ _ = Fp.Fp64 in
  Alcotest.(check string) "potrf fp64" "FP64"
    (Fp.name (Task.exec_precision ~kernel_precision:pmap64 (Task.Potrf 0)))

let test_dag_task_count () =
  List.iter
    (fun nt ->
      let dag = Dag.create ~nt in
      let expected =
        nt + (nt * (nt - 1)) + (nt * (nt - 1) * (nt - 2) / 6)
      in
      Alcotest.(check int) (Printf.sprintf "count nt=%d" nt) expected (Dag.num_tasks dag))
    [ 1; 2; 3; 5; 10; 40 ]

let test_dag_id_bijection () =
  List.iter
    (fun nt ->
      let dag = Dag.create ~nt in
      for id = 0 to Dag.num_tasks dag - 1 do
        Alcotest.(check int) "kind_of∘id_of = id" id (Dag.id_of dag (Dag.kind_of dag id))
      done)
    [ 1; 2; 3; 7; 12 ]

let test_dag_acyclic () =
  List.iter
    (fun nt ->
      let dag = Dag.create ~nt in
      Alcotest.(check bool) (Printf.sprintf "acyclic nt=%d" nt) true
        (Geomix_verify.Explore.check_acyclic ~num_tasks:(Dag.num_tasks dag)
           ~successors:(Dag.successors dag)))
    [ 1; 2; 5; 10 ]

let test_dag_in_degree_matches_successors () =
  List.iter
    (fun nt ->
      let dag = Dag.create ~nt in
      let n = Dag.num_tasks dag in
      let computed = Array.make n 0 in
      for id = 0 to n - 1 do
        List.iter (fun s -> computed.(s) <- computed.(s) + 1) (Dag.successors dag id)
      done;
      Alcotest.(check (array int)) (Printf.sprintf "in-degrees nt=%d" nt) computed
        (Dag.in_degree dag))
    [ 1; 2; 3; 6; 11 ]

let test_dag_nt1_trivial () =
  let dag = Dag.create ~nt:1 in
  Alcotest.(check int) "one task" 1 (Dag.num_tasks dag);
  Alcotest.(check string) "it is POTRF(0)" "POTRF(0)" (Task.name (Dag.kind_of dag 0));
  Alcotest.(check (list int)) "no successors" [] (Dag.successors dag 0)

let test_dag_small_structure () =
  let dag = Dag.create ~nt:3 in
  let succ_names id = List.map (fun s -> Task.name (Dag.kind_of dag s)) (Dag.successors dag id) in
  Alcotest.(check (list string)) "POTRF(0) → TRSMs" [ "TRSM(1,0)"; "TRSM(2,0)" ]
    (succ_names (Dag.id_of dag (Task.Potrf 0)));
  Alcotest.(check (list string)) "TRSM(2,0) succs"
    [ "GEMM(2,1,0)"; "SYRK(2,0)" ]
    (succ_names (Dag.id_of dag (Task.Trsm (2, 0))));
  Alcotest.(check (list string)) "SYRK(1,0) → POTRF(1)" [ "POTRF(1)" ]
    (succ_names (Dag.id_of dag (Task.Syrk (1, 0))));
  Alcotest.(check (list string)) "GEMM(2,1,0) → TRSM(2,1)" [ "TRSM(2,1)" ]
    (succ_names (Dag.id_of dag (Task.Gemm (2, 1, 0))))

let test_critical_path () =
  let dag = Dag.create ~nt:5 in
  Alcotest.(check int) "3(nt-1)+1" 13 (Dag.critical_path_tasks dag)

let test_dag_executes_in_valid_order () =
  let nt = 6 in
  let dag = Dag.create ~nt in
  Geomix_parallel.Pool.with_pool ~num_workers:0 (fun pool ->
    let done_ = Array.make (Dag.num_tasks dag) false in
    Dag_exec.run ~pool ~num_tasks:(Dag.num_tasks dag) ~in_degree:(Dag.in_degree dag)
      ~successors:(Dag.successors dag)
      ~execute:(fun id ->
        (match Dag.kind_of dag id with
        | Task.Trsm (m, k) ->
          assert (done_.(Dag.id_of dag (Task.Potrf k)));
          if k > 0 then assert (done_.(Dag.id_of dag (Task.Gemm (m, k, k - 1))))
        | Task.Potrf k -> if k > 0 then assert (done_.(Dag.id_of dag (Task.Syrk (k, k - 1))))
        | Task.Syrk (m, k) -> assert (done_.(Dag.id_of dag (Task.Trsm (m, k))))
        | Task.Gemm (m, n, k) ->
          assert (done_.(Dag.id_of dag (Task.Trsm (m, k))));
          assert (done_.(Dag.id_of dag (Task.Trsm (n, k)))));
        done_.(id) <- true)
      ();
    Alcotest.(check bool) "all executed" true (Array.for_all Fun.id done_))

let test_trace_basics () =
  let t = Trace.create () in
  Trace.add t { Trace.label = "a"; resource = 0; start = 0.; stop = 1.; tag = "FP64" };
  Trace.add t { Trace.label = "b"; resource = 1; start = 0.5; stop = 2.; tag = "FP16" };
  Alcotest.(check (float 0.)) "makespan" 2. (Trace.makespan t);
  Alcotest.(check (float 0.)) "busy r0" 1. (Trace.busy_time t ~resource:0);
  Alcotest.(check (float 1e-9)) "utilisation" (2.5 /. 4.) (Trace.utilisation t ~resources:2)

let test_trace_occupancy () =
  let t = Trace.create () in
  Trace.add t { Trace.label = "a"; resource = 0; start = 0.; stop = 1.; tag = "" };
  let occ = Trace.occupancy_series t ~resources:1 ~window:0.5 in
  Alcotest.(check int) "two windows" 2 (Array.length occ);
  Array.iter (fun (_, o) -> Alcotest.(check (float 1e-9)) "full" 1. o) occ

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_trace_chrome_json () =
  let t = Trace.create () in
  Trace.add t { Trace.label = "GEMM(1,0,0)"; resource = 0; start = 0.; stop = 0.5; tag = "FP16" };
  Trace.add t { Trace.label = "say \"hi\""; resource = 1; start = 0.25; stop = 1.; tag = "FP64" };
  let json = Trace.to_chrome_json t in
  Alcotest.(check bool) "has event" true (contains json {|"name":"GEMM(1,0,0)"|});
  Alcotest.(check bool) "escapes quotes" true (contains json {|say \"hi\"|});
  Alcotest.(check bool) "thread metadata" true (contains json "thread_name");
  Alcotest.(check bool) "microseconds" true (contains json {|"dur":500000.000|});
  Alcotest.(check bool) "array shaped" true
    (json.[0] = '[' && contains json "]")

let test_trace_gantt () =
  let t = Trace.create () in
  Trace.add t { Trace.label = "a"; resource = 0; start = 0.; stop = 1.; tag = "FP64" };
  Trace.add t { Trace.label = "b"; resource = 1; start = 0.5; stop = 1.; tag = "X" };
  let g = Trace.gantt t ~resources:2 ~width:10 in
  let lines = String.split_on_char '\n' g in
  Alcotest.(check bool) "two rows + axis" true (List.length lines >= 3);
  Alcotest.(check bool) "busy glyph" true (contains g "FFFFFFFFFF");
  Alcotest.(check bool) "idle then busy" true (contains g ".....XXXXX")

(* Degenerate renderer inputs: empty traces and zero makespans degrade to
   empty output, width 1 still renders, and nonsensical dimensions are
   Invalid_argument instead of assertion failures. *)

let test_trace_degenerate_empty () =
  let t = Trace.create () in
  Alcotest.(check int) "occupancy of empty trace" 0
    (Array.length (Trace.occupancy_series t ~resources:2 ~window:0.5));
  Alcotest.(check string) "gantt of empty trace" "" (Trace.gantt t ~resources:2 ~width:10);
  (* All-zero-duration events at t=0: makespan 0, same degenerate path. *)
  Trace.add t { Trace.label = "z"; resource = 0; start = 0.; stop = 0.; tag = "Z" };
  Alcotest.(check int) "occupancy at zero makespan" 0
    (Array.length (Trace.occupancy_series t ~resources:1 ~window:1.));
  Alcotest.(check string) "gantt at zero makespan" "" (Trace.gantt t ~resources:1 ~width:10)

let test_trace_degenerate_width_one () =
  let t = Trace.create () in
  Trace.add t { Trace.label = "a"; resource = 0; start = 0.; stop = 1.; tag = "A" };
  Trace.add t { Trace.label = "b"; resource = 1; start = 0.5; stop = 1.; tag = "B" };
  let g = Trace.gantt t ~resources:2 ~width:1 in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' g) in
  Alcotest.(check int) "two rows + axis" 3 (List.length lines);
  Alcotest.(check bool) "row 0 busy" true (contains g "|A|");
  Alcotest.(check bool) "row 1 busy" true (contains g "|B|")

let test_trace_invalid_args () =
  let t = Trace.create () in
  Trace.add t { Trace.label = "a"; resource = 0; start = 0.; stop = 1.; tag = "" };
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "gantt width 0" true
    (raises (fun () -> Trace.gantt t ~resources:1 ~width:0));
  Alcotest.(check bool) "gantt resources 0" true
    (raises (fun () -> Trace.gantt t ~resources:0 ~width:10));
  Alcotest.(check bool) "occupancy window 0" true
    (raises (fun () -> Trace.occupancy_series t ~resources:1 ~window:0.));
  Alcotest.(check bool) "occupancy window nan" true
    (raises (fun () -> Trace.occupancy_series t ~resources:1 ~window:Float.nan));
  Alcotest.(check bool) "occupancy resources 0" true
    (raises (fun () -> Trace.occupancy_series t ~resources:0 ~window:0.5))

let prop_id_bijection =
  QCheck.Test.make ~name:"random ids decode/encode" ~count:200
    QCheck.(pair (int_range 1 64) (int_range 0 10_000_000))
    (fun (nt, raw) ->
      let dag = Dag.create ~nt in
      let id = raw mod Dag.num_tasks dag in
      Dag.id_of dag (Dag.kind_of dag id) = id)

let prop_successors_are_forward_ready =
  QCheck.Test.make ~name:"successors stay in range" ~count:100
    (QCheck.int_range 1 20)
    (fun nt ->
      let dag = Dag.create ~nt in
      let ok = ref true in
      for id = 0 to Dag.num_tasks dag - 1 do
        List.iter
          (fun s -> if s < 0 || s >= Dag.num_tasks dag then ok := false)
          (Dag.successors dag id)
      done;
      !ok)

let () =
  Alcotest.run "runtime"
    [
      ( "task",
        [
          Alcotest.test_case "names" `Quick test_task_names;
          Alcotest.test_case "footprints" `Quick test_task_footprints;
          Alcotest.test_case "producer of read" `Quick test_producer_of_read;
          Alcotest.test_case "exec precision" `Quick test_exec_precision;
        ] );
      ( "cholesky dag",
        [
          Alcotest.test_case "task count" `Quick test_dag_task_count;
          Alcotest.test_case "id bijection" `Quick test_dag_id_bijection;
          Alcotest.test_case "acyclic" `Quick test_dag_acyclic;
          Alcotest.test_case "in-degree consistency" `Quick test_dag_in_degree_matches_successors;
          Alcotest.test_case "nt=1 trivial" `Quick test_dag_nt1_trivial;
          Alcotest.test_case "small structure" `Quick test_dag_small_structure;
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "valid execution order" `Quick test_dag_executes_in_valid_order;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace_basics;
          Alcotest.test_case "occupancy" `Quick test_trace_occupancy;
          Alcotest.test_case "chrome json export" `Quick test_trace_chrome_json;
          Alcotest.test_case "ascii gantt" `Quick test_trace_gantt;
          Alcotest.test_case "degenerate empty/zero makespan" `Quick
            test_trace_degenerate_empty;
          Alcotest.test_case "gantt width 1" `Quick test_trace_degenerate_width_one;
          Alcotest.test_case "invalid renderer args" `Quick test_trace_invalid_args;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_id_bijection; prop_successors_are_forward_ready ] );
    ]
