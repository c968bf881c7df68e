(* The observability layer: metrics registry semantics (histogram edge
   cases, snapshot/diff algebra), the Jsonlite/Bench_json pipeline behind
   the CI regression gate, the instrumented pool, and the property that
   DTD bytes-on-the-wire accounting is a pure function of the inserted
   program — identical under every schedule the derived DAG admits. *)

module M = Geomix_obs.Metrics
module J = Geomix_obs.Jsonlite
module B = Geomix_obs.Bench_json
module Pool = Geomix_parallel.Pool
module Dtd = Geomix_verify.Dtd
module Gen = Geomix_verify.Gen
module Explore = Geomix_verify.Explore

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let hist_of = function
  | Some (M.Histogram h) -> h
  | _ -> Alcotest.fail "expected a histogram"

let counter_of = function
  | Some (M.Counter c) -> c
  | _ -> Alcotest.fail "expected a counter"

let gauge_of = function
  | Some (M.Gauge g) -> g
  | _ -> Alcotest.fail "expected a gauge"

(* Counters and gauges *)

let test_counter_basics () =
  let t = M.create () in
  let c = M.counter t "c" in
  M.incr c;
  M.add c 41;
  Alcotest.(check int) "value" 42 (M.counter_value c);
  Alcotest.check_raises "negative add"
    (Invalid_argument "Metrics.add: counters are monotonic") (fun () -> M.add c (-1));
  (* Re-requesting the name returns the same cell... *)
  M.incr (M.counter t "c");
  Alcotest.(check int) "shared cell" 43 (M.counter_value c);
  (* ...and a kind clash is an error, not a shadow. *)
  Alcotest.(check bool) "kind clash" true
    (try
       ignore (M.gauge t "c");
       false
     with Invalid_argument _ -> true)

let test_gauge_set_max () =
  let t = M.create () in
  let g = M.gauge t "g" in
  M.set g 3.;
  M.set_max g 1.;
  Alcotest.(check (float 0.)) "max keeps larger" 3. (M.gauge_value g);
  M.set_max g 7.;
  Alcotest.(check (float 0.)) "max raises" 7. (M.gauge_value g);
  M.set g 2.;
  Alcotest.(check (float 0.)) "set overwrites" 2. (M.gauge_value g)

(* Histogram bucketing edge cases *)

let test_histogram_edges () =
  let t = M.create () in
  let h = M.histogram t "h" in
  (* default lo = 1e-6 over 12 decades: top edge 1e6 *)
  M.observe h 0.;
  M.observe h (-3.);
  M.observe h 5e-7;
  (* sub-lo *)
  M.observe h 1e-6;
  (* exactly lo: first bucket *)
  M.observe h 0.5;
  (* mid-range *)
  M.observe h 1e6;
  (* exactly the top edge: overflow *)
  M.observe h 1e10 (* beyond *);
  let s = hist_of (M.find (M.snapshot t) "h") in
  Alcotest.(check int) "underflow" 3 s.M.underflow;
  Alcotest.(check int) "overflow" 2 s.M.overflow;
  Alcotest.(check int) "count" 7 s.M.count;
  Alcotest.(check (float 0.)) "min" (-3.) s.M.min_v;
  Alcotest.(check (float 0.)) "max" 1e10 s.M.max_v;
  let in_bucket = Array.fold_left (fun acc (_, c) -> acc + c) 0 s.M.buckets in
  Alcotest.(check int) "bucketed = count - under - over" 2 in_bucket

let test_histogram_bucket_bounds () =
  (* Every observed value must land in a bucket whose bounds contain it. *)
  let t = M.create () in
  let h = M.histogram ~lo:1e-3 ~decades:3 ~per_decade:5 t "h" in
  let values = [ 1e-3; 2.3e-3; 0.04; 0.09; 0.5; 0.999 ] in
  List.iter (M.observe h) values;
  let s = hist_of (M.find (M.snapshot t) "h") in
  Alcotest.(check int) "no under/over" 0 (s.M.underflow + s.M.overflow);
  (* Reconstruct the per-bucket lower bounds and check containment. *)
  Array.iteri
    (fun i (upper, cnt) ->
      if cnt > 0 then begin
        let lower = if i = 0 then s.M.lo else fst s.M.buckets.(i - 1) in
        let inside = List.filter (fun v -> v >= lower && v < upper) values in
        Alcotest.(check int)
          (Printf.sprintf "bucket [%g, %g)" lower upper)
          (List.length inside) cnt
      end)
    s.M.buckets

let test_histogram_stats () =
  let t = M.create () in
  let h = M.histogram t "h" in
  List.iter (M.observe h) [ 0.1; 0.2; 0.3; 0.4 ];
  let s = hist_of (M.find (M.snapshot t) "h") in
  Alcotest.(check (float 1e-12)) "sum" 1.0 s.M.sum;
  Alcotest.(check (float 1e-12)) "mean" 0.25 (M.mean s);
  (* All mass in two adjacent decades: the median must sit between the
     extremes, within bucket resolution (10^(1/4) ≈ 1.78x). *)
  let p50 = M.quantile s 0.5 in
  Alcotest.(check bool) "p50 in range" true (p50 >= 0.1 && p50 <= 0.4 *. 1.78)

let test_quantile_edge_cases () =
  let t = M.create () in
  let h = M.histogram t "h" in
  let s0 = hist_of (M.find (M.snapshot t) "h") in
  Alcotest.(check bool) "empty quantile nan" true (Float.is_nan (M.quantile s0 0.5));
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (M.mean s0));
  M.observe h 0.;
  (* underflow only *)
  let s1 = hist_of (M.find (M.snapshot t) "h") in
  Alcotest.(check (float 0.)) "underflow quantile" 0. (M.quantile s1 0.5);
  Alcotest.(check bool) "out of range" true
    (try
       ignore (M.quantile s1 1.5);
       false
     with Invalid_argument _ -> true);
  (* All mass in one bucket: every quantile collapses to that bucket's
     bounds, so p01 and p99 agree within one bucket's resolution. *)
  let h2 = M.histogram t "h2" in
  for _ = 1 to 100 do
    M.observe h2 0.42
  done;
  let s2 = hist_of (M.find (M.snapshot t) "h2") in
  let p01 = M.quantile s2 0.01 and p99 = M.quantile s2 0.99 in
  Alcotest.(check bool) "single-bucket p01 brackets the value" true
    (p01 <= 0.42 *. 1.78 && p99 >= 0.42 /. 1.78);
  Alcotest.(check bool) "single-bucket quantiles agree" true
    (p99 <= p01 *. 1.7782794100389228 +. 1e-12);
  (* Sparse mass across distant log buckets: p99 must land in the top
     populated bucket, p50 in the bottom one — cumulative counting must
     not smear across the empty decades between them. *)
  let h3 = M.histogram t "h3" in
  for _ = 1 to 99 do
    M.observe h3 1e-3
  done;
  M.observe h3 10.;
  let s3 = hist_of (M.find (M.snapshot t) "h3") in
  Alcotest.(check bool) "sparse p50 stays in the low bucket" true
    (M.quantile s3 0.50 <= 1e-3 *. 1.78);
  Alcotest.(check bool) "sparse p99 stays low (99/100 below)" true
    (M.quantile s3 0.99 <= 1e-3 *. 1.78);
  Alcotest.(check bool) "sparse p995 jumps to the top bucket" true
    (M.quantile s3 0.995 >= 10. /. 1.78);
  Alcotest.(check bool) "p100 caps at max bucket" true
    (M.quantile s3 1.0 >= 10. /. 1.78)

let test_span_timer () =
  let t = M.create () in
  let h = M.histogram t "h" in
  let r = M.time h (fun () -> 42) in
  Alcotest.(check int) "result" 42 r;
  (try M.time h (fun () -> failwith "boom") with Failure _ -> ());
  let s = hist_of (M.find (M.snapshot t) "h") in
  Alcotest.(check int) "records also on exception" 2 s.M.count;
  Alcotest.(check bool) "durations non-negative" true (s.M.min_v >= 0.)

(* Snapshot / diff algebra *)

let test_snapshot_diff () =
  let t = M.create () in
  let c = M.counter t "c" and g = M.gauge t "g" and h = M.histogram t "h" in
  M.add c 5;
  M.set g 1.;
  M.observe h 0.5;
  let s0 = M.snapshot t in
  M.add c 3;
  M.set g 9.;
  M.observe h 0.25;
  M.observe h 0.75;
  let s1 = M.snapshot t in
  let d = M.diff s1 s0 in
  Alcotest.(check int) "counter delta" 3 (counter_of (M.find d "c"));
  Alcotest.(check (float 0.)) "gauge keeps after" 9. (gauge_of (M.find d "g"));
  let dh = hist_of (M.find d "h") in
  Alcotest.(check int) "hist count delta" 2 dh.M.count;
  Alcotest.(check (float 1e-12)) "hist sum delta" 1.0 dh.M.sum;
  (* diff with itself zeroes every population *)
  let z = M.diff s1 s1 in
  Alcotest.(check int) "self counter" 0 (counter_of (M.find z "c"));
  Alcotest.(check int) "self hist" 0 (hist_of (M.find z "h")).M.count

let test_exporters_cover_all_metrics () =
  let t = M.create () in
  M.add (M.counter t "a.count") 2;
  M.set (M.gauge t "b.gauge") 1.5;
  M.observe (M.histogram t "c.hist") 0.1;
  let s = M.snapshot t in
  let table = M.to_table s and csv = M.to_csv s in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("table has " ^ name) true (contains ~affix:name table);
      Alcotest.(check bool) ("csv has " ^ name) true (contains ~affix:name csv))
    [ "a.count"; "b.gauge"; "c.hist" ];
  (* JSON export round-trips through the parser. *)
  match J.of_string (M.to_json_string s) with
  | Error e -> Alcotest.fail e
  | Ok (J.Obj entries) -> Alcotest.(check int) "three entries" 3 (List.length entries)
  | Ok _ -> Alcotest.fail "snapshot JSON is not an object"

(* Jsonlite *)

let test_jsonlite_roundtrip () =
  let tree =
    J.Obj
      [
        ("s", J.Str "he\"llo\n\t");
        ("n", J.Num 2.5);
        ("neg", J.Num (-17.));
        ("b", J.Bool true);
        ("z", J.Null);
        ("a", J.Arr [ J.Num 1.; J.Str "x"; J.Obj [] ]);
      ]
  in
  (match J.of_string (J.to_string tree) with
  | Error e -> Alcotest.fail e
  | Ok back -> Alcotest.(check bool) "roundtrip" true (back = tree));
  match J.of_string (J.to_string ~indent:true tree) with
  | Error e -> Alcotest.fail e
  | Ok back -> Alcotest.(check bool) "indented roundtrip" true (back = tree)

let test_jsonlite_errors () =
  List.iter
    (fun src ->
      match J.of_string src with
      | Ok _ -> Alcotest.failf "parsed %S" src
      | Error _ -> ())
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2" ]

(* Bench_json and the regression gate *)

let test_bench_json_roundtrip () =
  let bench =
    B.make ~suite:"s"
      [
        B.metric ~units:"s" "makespan" 1.25;
        B.metric ~units:"Tflop/s" ~direction:B.Higher_is_better "tflops" 42.;
      ]
  in
  match B.of_json_string (B.to_json_string bench) with
  | Error e -> Alcotest.fail e
  | Ok back ->
    Alcotest.(check int) "schema" B.schema_version back.B.schema_version;
    Alcotest.(check string) "suite" "s" back.B.suite;
    Alcotest.(check bool) "metrics equal" true (back.B.metrics = bench.B.metrics)

let test_regression_gate_directions () =
  let base =
    B.make ~suite:"s"
      [
        B.metric "lower" 100.;
        B.metric ~direction:B.Higher_is_better "higher" 100.;
        B.metric "gone" 1.;
      ]
  in
  let gate low high =
    let current =
      B.make ~suite:"s"
        [ B.metric "lower" low; B.metric ~direction:B.Higher_is_better "higher" high ]
    in
    B.compare ~tolerance:0.2 ~baseline:base ~current ()
  in
  (* Within tolerance in the bad direction: ok. *)
  Alcotest.(check bool) "within" false (B.any_regressed (gate 115. 85.));
  (* Improvements are never regressions, however large. *)
  Alcotest.(check bool) "improve" false (B.any_regressed (gate 1. 1000.));
  (* Past tolerance the right metric trips. *)
  let v = gate 121. 100. in
  Alcotest.(check bool) "lower trips" true B.(any_regressed v);
  Alcotest.(check bool) "only lower" true
    (List.for_all (fun x -> x.B.regressed = (x.B.metric_name = "lower")) v);
  Alcotest.(check bool) "higher trips" true (B.any_regressed (gate 100. 79.));
  (* Even a wide (300%) tolerance keeps a real floor for higher-is-better
     metrics: the bound is baseline/(1+tol) = 25, not the vacuous
     baseline·(1−tol) < 0. *)
  let wide high =
    let current =
      B.make ~suite:"s"
        [ B.metric "lower" 100.; B.metric ~direction:B.Higher_is_better "higher" high ]
    in
    B.any_regressed (B.compare ~tolerance:3.0 ~baseline:base ~current ())
  in
  Alcotest.(check bool) "wide tolerance trips below floor" true (wide 20.);
  Alcotest.(check bool) "wide tolerance holds above floor" false (wide 30.);
  (* Metrics missing from current are skipped, not failures. *)
  Alcotest.(check int) "gone skipped" 2 (List.length v);
  Alcotest.(check bool) "report mentions verdicts" true
    (contains ~affix:"REGRESSED" (B.report_verdicts v))

let test_regression_gate_expect () =
  let base =
    B.make ~suite:"s"
      [ B.metric "owned_a" 10.; B.metric "owned_gone" 5.; B.metric "other" 1. ]
  in
  let current = B.make ~suite:"s" [ B.metric "owned_a" 10. ] in
  let expect n = String.length n >= 6 && String.sub n 0 6 = "owned_" in
  (* Without the predicate both absences are subset-gate skips. *)
  let plain = B.compare ~tolerance:0.2 ~baseline:base ~current () in
  Alcotest.(check bool) "default skips" false (B.any_regressed plain);
  Alcotest.(check int) "default verdict count" 1 (List.length plain);
  (* With it, an owned metric missing from the candidate is a failure with
     an explicit name; foreign absences still skip. *)
  let v = B.compare ~expect ~tolerance:0.2 ~baseline:base ~current () in
  Alcotest.(check bool) "expected absence trips" true (B.any_regressed v);
  Alcotest.(check (list string)) "missing named" [ "owned_gone" ] (B.missing v);
  Alcotest.(check int) "foreign absence still skipped" 2 (List.length v);
  Alcotest.(check bool) "report marks it" true
    (contains ~affix:"MISSING FROM CANDIDATE" (B.report_verdicts v));
  (* A candidate that emits everything it owns passes untouched. *)
  let full =
    B.make ~suite:"s" [ B.metric "owned_a" 10.; B.metric "owned_gone" 5. ]
  in
  Alcotest.(check bool) "complete candidate passes" false
    (B.any_regressed (B.compare ~expect ~tolerance:0.2 ~baseline:base ~current:full ()))

let test_bench_json_file_io () =
  let path = Filename.temp_file "geomix_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let bench = B.make ~suite:"io" [ B.metric "m" 3.5 ] in
      B.write ~path bench;
      match B.read ~path with
      | Error e -> Alcotest.fail e
      | Ok back -> Alcotest.(check bool) "file roundtrip" true (back.B.metrics = bench.B.metrics))

(* Instrumented pool *)

let test_pool_obs () =
  let reg = M.create () in
  let total = 57 in
  Pool.with_pool ~obs:reg ~num_workers:2 (fun pool ->
    let job = Pool.new_job pool in
    for _ = 1 to total do
      Pool.submit_job pool job (fun () -> ignore (Sys.opaque_identity (ref 0)))
    done;
    Pool.join_job pool job);
  let s = M.snapshot reg in
  Alcotest.(check int) "tasks" total (counter_of (M.find s "pool.tasks"));
  Alcotest.(check (float 0.)) "workers" 2. (gauge_of (M.find s "pool.workers"));
  Alcotest.(check int) "wait observations" total
    (hist_of (M.find s "pool.queue_wait_s")).M.count;
  Alcotest.(check int) "run observations" total (hist_of (M.find s "pool.run_s")).M.count;
  let per_worker =
    (counter_of (M.find s "pool.worker0.tasks"))
    + counter_of (M.find s "pool.worker1.tasks")
  in
  Alcotest.(check int) "worker counters sum" total per_worker;
  Alcotest.(check bool) "queue peak positive" true
    (gauge_of (M.find s "pool.queue_peak") >= 1.)

let test_pool_obs_serial () =
  let reg = M.create () in
  Pool.with_pool ~obs:reg ~num_workers:0 (fun pool ->
    let job = Pool.new_job pool in
    for _ = 1 to 5 do
      Pool.submit_job pool job (fun () -> ())
    done;
    Pool.join_job pool job);
  let s = M.snapshot reg in
  Alcotest.(check int) "serial tasks" 5 (counter_of (M.find s "pool.tasks"));
  Alcotest.(check int) "serial worker0" 5 (counter_of (M.find s "pool.worker0.tasks"))

(* DTD byte accounting: declared volume, under every schedule *)

let datum_bytes k = (k mod 7) + 1

let test_dtd_declared_bytes () =
  let t = Dtd.create () in
  (* A small chain with a broadcast: 0 writes {0,1}; 1 and 2 read them. *)
  ignore (Dtd.insert t ~name:"w" ~reads:[] ~writes:[ 0; 1 ] (fun () -> ()));
  ignore (Dtd.insert t ~name:"r1" ~reads:[ 0; 1 ] ~writes:[ 2 ] (fun () -> ()));
  ignore (Dtd.insert t ~name:"r2" ~reads:[ 0; 2 ] ~writes:[] (fun () -> ()));
  (* RAW edges: r1←w on 0 and 1; r2←w on 0, r2←r1 on 2. *)
  Alcotest.(check (list int)) "per-task fetch" [ 0; 1 + 2; 1 + 3 ]
    (List.init 3 (Dtd.task_in_bytes ~datum_bytes t));
  Alcotest.(check int) "declared volume" (1 + 2 + 1 + 3) (Dtd.comm_volume ~datum_bytes t)

let prop_bytes_schedule_independent =
  QCheck.Test.make ~name:"bytes-on-the-wire identical across interleavings" ~count:40
    (Gen.program_spec ~max_ops:18 ~max_keys:6 ())
    (fun spec ->
      let program = Gen.program_of_spec spec in
      let t = Gen.dtd_of_program program in
      let declared = Dtd.comm_volume ~datum_bytes t in
      let graph = Explore.of_dtd t in
      let ok = ref true in
      Explore.for_each_seed ~seeds:8 graph (fun ~seed:_ order ->
        (* Sum the fetch volume in execution order: the accumulation order
           changes with the schedule, the total must not. *)
        let total = ref 0 in
        Explore.run_schedule graph ~order ~execute:(fun id ->
          total := !total + Dtd.task_in_bytes ~datum_bytes t id);
        if !total <> declared then ok := false);
      !ok)

(* Telemetry bus *)

module E = Geomix_obs.Events
module Trace = Geomix_runtime.Trace
module Tiled = Geomix_tile.Tiled
module Pm = Geomix_core.Precision_map
module Chol = Geomix_core.Mp_cholesky

(* Levels are the sinks' business: a stream with no sink records nothing,
   and the stderr sink drops what is below its level while a ring beside
   it keeps everything. *)
let test_bus_level_filtering () =
  let bus = E.create () in
  Alcotest.(check bool) "no sink, nothing enabled" false (E.enabled bus E.Error);
  E.emit ~level:E.Error bus ~component:"t" ~name:"unheard" [];
  let ring = E.ring bus in
  Alcotest.(check bool) "a sink enables every level" true (E.enabled bus E.Debug);
  let path = Filename.temp_file "geomix_stderr" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let saved = Unix.dup Unix.stderr in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      flush stderr;
      Unix.dup2 fd Unix.stderr;
      Unix.close fd;
      Fun.protect
        ~finally:(fun () ->
          flush stderr;
          Unix.dup2 saved Unix.stderr;
          Unix.close saved)
        (fun () ->
          E.attach_stderr ~min_level:E.Warn bus;
          E.emit ~level:E.Debug bus ~component:"t" ~name:"dropped" [];
          E.emit bus ~component:"t" ~name:"dropped too" [] (* default Info *);
          E.emit ~level:E.Warn bus ~component:"t" ~name:"kept" [];
          E.emit ~level:E.Error bus ~component:"t" ~name:"kept" []);
      let lines = In_channel.with_open_bin path In_channel.input_all in
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' lines) in
      Alcotest.(check int) "stderr holds warn+ only" 2 (List.length lines);
      Alcotest.(check bool) "all named kept" true
        (List.for_all (contains ~affix:"t.kept") lines));
  Alcotest.(check (list int)) "the ring keeps every level, numbered from the first sink"
    [ 0; 1; 2; 3 ]
    (List.map (fun e -> e.E.seq) (E.ring_events ring))

let test_bus_ring_capacity_and_order () =
  let bus = E.create () in
  let ring = E.ring ~capacity:4 bus in
  for i = 0 to 9 do
    E.emit bus ~component:"t" ~name:"e" [ ("i", E.fint i) ]
  done;
  let evs = E.ring_events ring in
  Alcotest.(check int) "capacity bounds history" 4 (List.length evs);
  Alcotest.(check (list int)) "most recent, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.E.seq) evs);
  (* Sequence numbers are dense and timestamps never step backwards. *)
  let rec mono = function
    | a :: (b : E.event) :: tl ->
      a.E.seq + 1 = b.E.seq && a.E.time <= b.E.time && mono (b :: tl)
    | _ -> true
  in
  Alcotest.(check bool) "monotonic seq/time" true (mono evs);
  Alcotest.(check bool) "nonnegative time" true
    (List.for_all (fun e -> e.E.time >= 0.) evs)

let test_bus_jsonl_roundtrip () =
  let bus = E.create () in
  let ring = E.ring bus in
  E.emit ~level:E.Warn bus ~component:"chol\"esky" ~name:"task_end"
    [
      ("task", E.fint 17);
      ("label", E.fstr "GEMM(5,3,1)\n");
      ("at", E.fnum 0.125);
    ];
  let e = List.hd (E.ring_events ring) in
  (match E.of_jsonl (E.to_jsonl e) with
  | Error msg -> Alcotest.fail msg
  | Ok back ->
    Alcotest.(check bool) "event roundtrips" true (back = e);
    Alcotest.(check bool) "payload survives header filtering" true
      (back.E.fields = e.E.fields));
  (* Malformed lines are errors, not crashes. *)
  List.iter
    (fun line ->
      match E.of_jsonl line with
      | Ok _ -> Alcotest.failf "parsed %S" line
      | Error _ -> ())
    [ "{"; "[1,2]"; "{\"seq\": 0}"; "" ]

let test_bus_jsonl_file_sink () =
  let path = Filename.temp_file "geomix_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let bus = E.create () in
      E.attach_jsonl bus oc;
      for i = 0 to 2 do
        E.emit bus ~component:"t" ~name:"e" [ ("i", E.fint i) ]
      done;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let parsed =
        List.rev_map
          (fun l ->
            match E.of_jsonl l with Ok e -> e | Error m -> Alcotest.fail m)
          !lines
      in
      Alcotest.(check int) "one line per event" 3 (List.length parsed);
      Alcotest.(check (list int)) "in emission order" [ 0; 1; 2 ]
        (List.map (fun e -> e.E.seq) parsed))

let test_bus_read_jsonl_resilient () =
  let path = Filename.temp_file "geomix_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let bus = E.create () in
      E.attach_jsonl bus oc;
      for i = 0 to 3 do
        E.emit bus ~component:"t" ~name:"e" [ ("i", E.fint i) ]
      done;
      (* A log damaged in the middle and truncated mid-line by a crash:
         foreign output, garbage, and a partial final record. *)
      output_string oc "worker 3: restarting\n";
      output_string oc "{\"seq\": 99}\n";
      output_string oc "\n";
      output_string oc "{\"seq\":4,\"t\":0.5,\"level\":\"info\",\"compo";
      close_out oc;
      let ic = open_in path in
      let events, skipped =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> E.read_jsonl ic)
      in
      Alcotest.(check int) "every intact event survives" 4 (List.length events);
      Alcotest.(check (list int)) "in emission order" [ 0; 1; 2; 3 ]
        (List.map (fun e -> e.E.seq) events);
      (* Blank line is ignored silently; the three broken lines count. *)
      Alcotest.(check int) "malformed lines counted" 3 skipped)

let test_bus_non_finite_payload () =
  let bus = E.create () in
  let ring = E.ring bus in
  E.emit bus ~component:"bench" ~name:"stat"
    [ ("mean", E.fnum Float.nan); ("max", E.fnum Float.infinity) ];
  let e = List.hd (E.ring_events ring) in
  let line = E.to_jsonl e in
  Alcotest.(check bool) "non-finite floats serialise as null" true
    (contains ~affix:"\"mean\":null" line
    && contains ~affix:"\"max\":null" line
    && not (contains ~affix:"nan" (String.lowercase_ascii line)));
  match E.of_jsonl line with
  | Error msg -> Alcotest.fail msg
  | Ok back ->
    Alcotest.(check bool) "round-trips as Null, still one event" true
      (back.E.fields = [ ("mean", J.Null); ("max", J.Null) ])

(* Byte-mutation fuzzing of the JSONL reader: valid lines with flipped,
   inserted or deleted bytes, or cut short, must decode to [Ok] or
   [Error] without raising, and [read_jsonl] must account for every
   non-blank line as either an intact event or a skipped one. *)
type mutation =
  | Flip of int * int
  | Insert of int * char
  | Delete of int
  | Truncate of int
  | Rotate of int

let gen_jsonl_mutated =
  let open QCheck.Gen in
  let text = string_size ~gen:(oneof [ printable; char ]) (int_range 0 8) in
  let payload =
    oneof
      [
        map E.fint (int_range (-1000) 1000);
        map E.fnum (oneofl [ 0.; -1.5; 1e-300; 6.02e23; Float.nan; Float.infinity ]);
        map E.fstr text;
      ]
  in
  let event =
    let* seq = int_range 0 100_000 in
    let* time = float_range 0. 1e4 in
    let* level = oneofl [ E.Debug; E.Info; E.Warn; E.Error ] in
    let* component = text and* name = text in
    let* fields = list_size (int_range 0 4) (pair text payload) in
    return { E.seq; time; level; component; name; fields }
  in
  let mutation =
    oneof
      [
        map2 (fun i m -> Flip (i, m)) nat (int_range 1 255);
        map2 (fun i c -> Insert (i, c)) nat char;
        map (fun i -> Delete i) nat;
        map (fun i -> Truncate i) nat;
      ]
  in
  pair (list_size (int_range 1 4) event) (list_size (int_range 1 4) mutation)

let apply_mutation s m =
  let n = String.length s in
  if n = 0 then s
  else
    match m with
    | Flip (i, mask) ->
      let i = i mod n in
      String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor mask) else c) s
    | Insert (i, c) ->
      let i = i mod (n + 1) in
      String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    | Delete i ->
      let i = i mod n in
      String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | Truncate i -> String.sub s 0 (i mod n)
    | Rotate i ->
      let i = i mod n in
      String.sub s i (n - i) ^ String.sub s 0 i

let prop_jsonl_mutations_are_typed =
  QCheck.Test.make ~count:300 ~name:"mutated jsonl never raises"
    (QCheck.make gen_jsonl_mutated) (fun (events, mutations) ->
      let text =
        List.fold_left apply_mutation
          (String.concat "\n" (List.map E.to_jsonl events))
          mutations
      in
      let lines = String.split_on_char '\n' text in
      List.iter
        (fun l -> match E.of_jsonl l with Ok _ | Error _ -> ())
        lines;
      let path = Filename.temp_file "geomix_fuzz" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc text);
          let intact, skipped =
            In_channel.with_open_bin path (fun ic ->
                let evs, skipped = E.read_jsonl ic in
                (List.length evs, skipped))
          in
          intact + skipped
          = List.length (List.filter (fun l -> String.trim l <> "") lines)))

(* The same byte mutations for the other parsers of outside input, plus a
   rotation (which can carry a closing delimiter ahead of its opener), with
   inserted bytes biased towards each format's structural characters so
   the damage lands where the parser branches. *)
let gen_mutations structural =
  let open QCheck.Gen in
  let byte = oneof [ oneofl structural; char ] in
  list_size (int_range 1 6)
    (oneof
       [
         map2 (fun i m -> Flip (i, m)) nat (int_range 1 255);
         map2 (fun i c -> Insert (i, c)) nat byte;
         map (fun i -> Delete i) nat;
         map (fun i -> Truncate i) nat;
         map (fun i -> Rotate i) nat;
       ])

let rec gen_json depth =
  let open QCheck.Gen in
  let text = string_size ~gen:(oneof [ printable; char ]) (int_range 0 8) in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun x -> J.Num x) (oneofl [ 0.; -1.5; 1e-300; 6.02e23; 42. ]);
        map (fun s -> J.Str s) text;
      ]
  in
  if depth = 0 then leaf
  else
    let elems = list_size (int_range 0 3) (gen_json (depth - 1)) in
    let members = list_size (int_range 0 3) (pair text (gen_json (depth - 1))) in
    oneof [ leaf; map (fun l -> J.Arr l) elems; map (fun l -> J.Obj l) members ]

let prop_json_mutations_are_typed =
  QCheck.Test.make ~count:300 ~name:"mutated json never raises"
    (QCheck.make
       QCheck.Gen.(
         triple (gen_json 3) bool
           (gen_mutations [ '{'; '}'; '['; ']'; '"'; ','; ':'; '\\'; '-'; 'e'; '.'; 'u' ])))
    (fun (json, indent, mutations) ->
      let text = List.fold_left apply_mutation (J.to_string ~indent json) mutations in
      match J.of_string text with Ok _ | Error _ -> true)

let test_bus_env_level () =
  let restore = Sys.getenv_opt "GEOMIX_LOG" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GEOMIX_LOG" (Option.value restore ~default:""))
    (fun () ->
      Unix.putenv "GEOMIX_LOG" "warn";
      Alcotest.(check bool) "warn" true (E.env_level () = Some E.Warn);
      Unix.putenv "GEOMIX_LOG" "DEBUG";
      Alcotest.(check bool) "case-insensitive" true (E.env_level () = Some E.Debug);
      Unix.putenv "GEOMIX_LOG" "bogus";
      Alcotest.(check bool) "unparseable is off" true (E.env_level () = None);
      Unix.putenv "GEOMIX_LOG" "";
      Alcotest.(check bool) "empty is off" true (E.env_level () = None))

let count_named evs component name =
  List.length
    (List.filter (fun e -> e.E.component = component && e.E.name = name) evs)

let test_pool_bus_events () =
  let obs = M.create () in
  let ring = E.ring (M.events obs) in
  (* The failing thunk is narrated on the stream and re-raised at join_job. *)
  (try
     Pool.with_pool ~obs ~num_workers:2 (fun pool ->
       let job = Pool.new_job pool in
       Pool.submit_job pool job (fun () -> ());
       Pool.submit_job pool job (fun () -> failwith "boom");
       Pool.join_job pool job)
   with Failure _ -> ());
  let evs = E.ring_events ring in
  Alcotest.(check int) "one create" 1 (count_named evs "pool" "create");
  Alcotest.(check int) "worker starts" 2 (count_named evs "pool" "worker_start");
  Alcotest.(check int) "worker stops" 2 (count_named evs "pool" "worker_stop");
  Alcotest.(check int) "one shutdown" 1 (count_named evs "pool" "shutdown");
  let errors =
    List.filter (fun e -> e.E.component = "pool" && e.E.name = "error") evs
  in
  Alcotest.(check int) "failing thunk narrated" 1 (List.length errors);
  Alcotest.(check bool) "at error level" true
    (List.for_all (fun e -> e.E.level = E.Error) errors);
  (* Lifecycle order: create first, shutdown last. *)
  match (evs, List.rev evs) with
  | first :: _, last :: _ ->
    Alcotest.(check string) "create first" "create" first.E.name;
    Alcotest.(check string) "shutdown last" "shutdown" last.E.name
  | _ -> Alcotest.fail "no events"

let test_bus_reconstructs_makespan () =
  (* The acceptance check behind `geomix report`, on the factorization it
     runs: task_end events carry the same floats the profile records, so the
     streamed log rebuilds the measured makespan bit-identically. *)
  let obs = M.create () in
  let ring = E.ring (M.events obs) in
  let profile = Geomix_obs.Profile.collector () in
  let nt = 4 and nb = 8 in
  let a =
    Tiled.init ~n:(nt * nb) ~nb (fun i j ->
      (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))
  in
  Chol.factorize ~profile ~obs ~pmap:(Pm.uniform ~nt Geomix_precision.Fpformat.Fp64) a;
  let trace = Trace.of_measures (Geomix_obs.Profile.measures profile) in
  let streamed =
    List.fold_left
      (fun acc e ->
        if e.E.name = "task_end" then
          match List.assoc_opt "at" e.E.fields with
          | Some (J.Num stop) -> Float.max acc stop
          | _ -> Alcotest.fail "task_end without at"
        else acc)
      0. (E.ring_events ring)
  in
  Alcotest.(check bool) "events observed work" true (streamed > 0.);
  Alcotest.(check bool) "bit-identical makespan" true
    (streamed = Trace.makespan trace)

let test_factorize_feeds_every_sink_once () =
  (* One measured factorization keeps one per-task record, and every
     per-task sink derives from it exactly once: profile measures, the
     stream's begin/end pair and the task count of the span the job carries.
     That span also receives the RAW-edge transfers the registry counts. *)
  let module Profile = Geomix_obs.Profile in
  let module Span = Geomix_obs.Span in
  let module Cdag = Geomix_runtime.Cholesky_dag in
  let nt = 4 and nb = 8 in
  let dag = Cdag.create ~nt in
  let ntasks = Cdag.num_tasks dag in
  let preds =
    Geomix_parallel.Dag_exec.predecessors ~num_tasks:ntasks ~successors:(Cdag.successors dag)
  in
  List.iter
    (fun workers ->
      let profile = Profile.collector () in
      let obs = M.create () in
      let ring = E.ring ~capacity:4096 (M.events obs) in
      let span = Span.create ~request_id:"sinks" in
      let a =
        Tiled.init ~n:(nt * nb) ~nb (fun i j ->
          (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))
      in
      Pool.with_pool ~num_workers:workers (fun pool ->
        Chol.factorize ~pool ~profile ~job:(Pool.new_job ~span pool) ~obs
          ~pmap:(Pm.two_level ~nt ~off_diag:Geomix_precision.Fpformat.Fp16_32)
          a);
      let measures = Profile.measures profile in
      Alcotest.(check (list int))
        (Printf.sprintf "each task measured once (%d workers)" workers)
        (List.init ntasks Fun.id)
        (List.sort compare (List.map (fun m -> m.Profile.id) measures));
      let evs =
        List.filter (fun e -> e.E.component = "cholesky") (E.ring_events ring)
      in
      let count name = List.length (List.filter (fun e -> e.E.name = name) evs) in
      Alcotest.(check int) "one task_begin per task" ntasks (count "task_begin");
      Alcotest.(check int) "one task_end per task" ntasks (count "task_end");
      let s = Span.summary span in
      Alcotest.(check int) "span counts every task" ntasks s.Span.s_tasks;
      Alcotest.(check bool) "span saw transfers" true (s.Span.s_bytes_stc > 0);
      Alcotest.(check int) "span bytes = registry bytes"
        (counter_of (M.find (M.snapshot obs) "cholesky.shipped_bytes"))
        s.Span.s_bytes_stc;
      let streamed =
        List.fold_left
          (fun acc e ->
            if e.E.name = "task_end" then
              match List.assoc_opt "at" e.E.fields with
              | Some (J.Num stop) -> Float.max acc stop
              | _ -> Alcotest.fail "task_end without at"
            else acc)
          0. evs
      in
      let makespan = Trace.makespan (Trace.of_measures measures) in
      Alcotest.(check bool) "trace makespan = streamed" true (makespan = streamed);
      Alcotest.(check bool) "trace makespan = profile makespan" true
        (makespan = (Profile.analyze ~preds measures).Profile.makespan))
    [ 0; 2 ]

(* Jsonlite: control characters, unicode passthrough, non-finite numbers *)

let test_jsonlite_control_and_unicode () =
  (* Control characters are escaped on the way out and decoded back. *)
  let s = J.Str "a\x01b\x1fc\x00" in
  Alcotest.(check bool) "controls escaped" true
    (contains ~affix:"\\u0001" (J.to_string ~indent:false s));
  (match J.of_string (J.to_string s) with
  | Ok back -> Alcotest.(check bool) "controls roundtrip" true (back = s)
  | Error e -> Alcotest.fail e);
  (* UTF-8 byte sequences pass through untouched. *)
  let u = J.Str "h\xc3\xa9llo \xe2\x86\x92" in
  (match J.of_string (J.to_string u) with
  | Ok back -> Alcotest.(check bool) "utf-8 preserved" true (back = u)
  | Error e -> Alcotest.fail e);
  (* \u escapes decode (low bytes). *)
  match J.of_string "\"\\u0041\\u000a\"" with
  | Ok (J.Str v) -> Alcotest.(check string) "unicode escapes" "A\n" v
  | _ -> Alcotest.fail "escape decode"

let test_jsonlite_non_finite () =
  List.iter
    (fun v ->
      let out = J.to_string ~indent:false (J.Num v) in
      Alcotest.(check string) "non-finite serialises as null" "null" out;
      match J.of_string out with
      | Ok J.Null -> ()
      | _ -> Alcotest.fail "null parse")
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* Inside a payload, too: the JSONL stream stays parseable. *)
  let obj = J.Obj [ ("x", J.Num Float.nan) ] in
  match J.of_string (J.to_string obj) with
  | Ok (J.Obj [ ("x", J.Null) ]) -> ()
  | _ -> Alcotest.fail "nan field becomes null"

let test_metrics_csv_quoting () =
  let t = M.create () in
  M.add (M.counter t "weird \"name\", x") 1;
  M.set (M.gauge t "plain") 2.;
  let csv = M.to_csv (M.snapshot t) in
  Alcotest.(check bool) "quotes doubled, field quoted" true
    (contains ~affix:"\"weird \"\"name\"\", x\"" csv);
  Alcotest.(check bool) "plain name unquoted" true (contains ~affix:"\nplain," csv)

(* {1 Exposition, snapshotter and spans} *)

module Expo = Geomix_obs.Expo
module Span = Geomix_obs.Span

let populated_registry () =
  let t = M.create () in
  M.add (M.counter t "serve.requests") 7;
  M.set (M.gauge t "serve.inflight") 2.;
  let h = M.histogram t "serve.latency_s" in
  List.iter (M.observe h) [ 0.001; 0.012; 0.012; 0.3 ];
  M.observe h 0.;
  (* one underflow observation *)
  t

let test_expo_roundtrip () =
  let t = populated_registry () in
  let body = Expo.to_prometheus (M.snapshot t) in
  Alcotest.(check (list string)) "lints clean" [] (Expo.lint body);
  match Expo.parse body with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok samples ->
    let value name =
      match Expo.find samples name with
      | Some s -> s.Expo.value
      | None -> Alcotest.failf "sample %s missing" name
    in
    Alcotest.(check (float 0.)) "counter" 7. (value "geomix_serve_requests");
    Alcotest.(check (float 0.)) "gauge" 2. (value "geomix_serve_inflight");
    Alcotest.(check (float 0.)) "hist count (incl. underflow)" 5.
      (value "geomix_serve_latency_s_count");
    (* The +Inf cumulative bucket equals _count. *)
    let inf_bucket =
      List.find_opt
        (fun s ->
          s.Expo.name = "geomix_serve_latency_s_bucket"
          && List.mem_assoc "le" s.Expo.labels
          && List.assoc "le" s.Expo.labels = "+Inf")
        samples
    in
    (match inf_bucket with
    | Some s -> Alcotest.(check (float 0.)) "+Inf bucket = count" 5. s.Expo.value
    | None -> Alcotest.fail "+Inf bucket missing")

(* Mutations land inside one line of a valid exposition: the parser and
   the linter both work line by line. *)
let prop_expo_mutations_are_typed =
  let lines =
    String.split_on_char '\n' (Expo.to_prometheus (M.snapshot (populated_registry ())))
  in
  QCheck.Test.make ~count:300 ~name:"mutated exposition never raises"
    (QCheck.make
       QCheck.Gen.(pair nat (gen_mutations [ '{'; '}'; '"'; '='; ','; ' '; '\n'; '#' ])))
    (fun (k, mutations) ->
      let k = k mod List.length lines in
      let text =
        String.concat "\n"
          (List.mapi
             (fun i l -> if i = k then List.fold_left apply_mutation l mutations else l)
             lines)
      in
      (match Expo.parse text with Ok _ | Error _ -> ());
      ignore (Expo.lint text : string list);
      true)

let test_expo_lint_rejects_damage () =
  let t = populated_registry () in
  let body = Expo.to_prometheus (M.snapshot t) in
  Alcotest.(check bool) "missing TYPE flagged" true
    (Expo.lint ("orphan_metric 1\n" ^ body) <> []);
  Alcotest.(check bool) "malformed line flagged" true
    (Expo.lint (body ^ "not a sample line at all\n") <> [])

let test_snapshotter_rotation () =
  let dir = Filename.temp_file "geomix-telemetry" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "telemetry.jsonl" in
  let t = populated_registry () in
  let sink = Expo.snapshotter ~max_bytes:256 ~keep:2 ~path () in
  for _ = 1 to 12 do
    Expo.snap sink (M.snapshot t)
  done;
  Expo.close sink;
  Alcotest.(check bool) "live file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "rotated at least once" true
    (Sys.file_exists (path ^ ".1"));
  Alcotest.(check bool) "keep bound respected" false
    (Sys.file_exists (path ^ ".3"));
  (* Every line of the newest rotated file is a decodable snapshot
     envelope (the live file may be freshly rotated, hence empty). *)
  let ic = open_in (path ^ ".1") in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       match J.of_string line with
       | Ok (J.Obj kvs) ->
         Alcotest.(check bool) "has t" true (List.mem_assoc "t" kvs);
         (match List.assoc_opt "metrics" kvs with
         | Some m -> (
           match M.of_json m with
           | Ok snap ->
             Alcotest.(check bool) "snapshot decodes" true
               (M.find snap "serve.requests" <> None)
           | Error e -> Alcotest.failf "metrics decode: %s" e)
         | None -> Alcotest.fail "missing metrics key")
       | Ok _ -> Alcotest.fail "line is not an object"
       | Error e -> Alcotest.failf "line is not json: %s" e
     done
   with End_of_file -> ());
  close_in ic;
  Alcotest.(check bool) "rotated file non-empty" true (!lines > 0);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let test_metrics_json_roundtrip () =
  let t = populated_registry () in
  let s = M.snapshot t in
  match M.of_json (M.to_json s) with
  | Error m -> Alcotest.failf "of_json: %s" m
  | Ok s' ->
    Alcotest.(check int) "same cardinality" (List.length s) (List.length s');
    (match (M.find s' "serve.requests", M.find s' "serve.inflight") with
    | Some (M.Counter 7), Some (M.Gauge 2.) -> ()
    | _ -> Alcotest.fail "scalar values survive");
    (match (M.find s "serve.latency_s", M.find s' "serve.latency_s") with
    | Some (M.Histogram h), Some (M.Histogram h') ->
      Alcotest.(check int) "hist count" h.M.count h'.M.count;
      Alcotest.(check int) "hist underflow" h.M.underflow h'.M.underflow;
      Alcotest.(check (float 1e-12)) "hist sum" h.M.sum h'.M.sum;
      Alcotest.(check (float 1e-12)) "p99 survives json" (M.quantile h 0.99)
        (M.quantile h' 0.99)
    | _ -> Alcotest.fail "histogram survives")

let test_span_accumulation_and_json () =
  let sp = Span.create ~request_id:"req-1" in
  Span.note_transfer sp ~prec:"FP32" ~bytes:400 ~fp64_bytes:800;
  Span.note_transfer sp ~prec:"FP64" ~bytes:800 ~fp64_bytes:800;
  Span.note_transfer sp ~bytes:100 ~fp64_bytes:100;
  Span.note_task sp;
  Span.note_task sp;
  Span.note_retry sp;
  Span.note_exec sp ~queue_s:0.25 ~run_s:1.5;
  let s = Span.summary sp in
  Alcotest.(check int) "stc bytes" 1300 s.Span.s_bytes_stc;
  Alcotest.(check int) "fp64 bytes" 1700 s.Span.s_bytes_fp64;
  Alcotest.(check int) "edges" 3 s.Span.s_edges;
  Alcotest.(check int) "tasks" 2 s.Span.s_tasks;
  Alcotest.(check int) "retries" 1 s.Span.s_retries;
  Alcotest.(check (float 1e-12)) "queue" 0.25 s.Span.s_queue_s;
  Alcotest.(check (float 1e-12)) "busy" 1.5 s.Span.s_busy_s;
  Alcotest.(check bool) "precision split covers labelled bytes" true
    (List.assoc_opt "FP32" s.Span.s_by_precision = Some 400
    && List.assoc_opt "FP64" s.Span.s_by_precision = Some 800);
  (* Children share the trace, parent linkage survives the codec. *)
  let child = Span.child sp ~request_id:"req-1/mc" in
  let cs = Span.summary child in
  Alcotest.(check string) "child shares trace id" s.Span.s_trace_id
    cs.Span.s_trace_id;
  Alcotest.(check bool) "child parented" true
    (cs.Span.s_parent = Some s.Span.s_span_id);
  match Span.summary_of_json (Span.summary_to_json s) with
  | Ok s' -> Alcotest.(check bool) "summary json round-trip" true (s = s')
  | Error m -> Alcotest.failf "summary_of_json: %s" m

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "gauge set/set_max" `Quick test_gauge_set_max;
          Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
          Alcotest.test_case "bucket bounds contain values" `Quick test_histogram_bucket_bounds;
          Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
          Alcotest.test_case "quantile edge cases" `Quick test_quantile_edge_cases;
          Alcotest.test_case "span timer" `Quick test_span_timer;
          Alcotest.test_case "snapshot/diff algebra" `Quick test_snapshot_diff;
          Alcotest.test_case "exporters" `Quick test_exporters_cover_all_metrics;
          Alcotest.test_case "csv quoting" `Quick test_metrics_csv_quoting;
        ] );
      ( "jsonlite",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonlite_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_jsonlite_errors;
          Alcotest.test_case "control chars and unicode" `Quick
            test_jsonlite_control_and_unicode;
          Alcotest.test_case "non-finite numbers" `Quick test_jsonlite_non_finite;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x750B |])
            prop_json_mutations_are_typed;
        ] );
      ( "telemetry bus",
        [
          Alcotest.test_case "level filtering" `Quick test_bus_level_filtering;
          Alcotest.test_case "ring capacity and order" `Quick
            test_bus_ring_capacity_and_order;
          Alcotest.test_case "jsonl roundtrip" `Quick test_bus_jsonl_roundtrip;
          Alcotest.test_case "jsonl file sink" `Quick test_bus_jsonl_file_sink;
          Alcotest.test_case "read_jsonl skips damage" `Quick
            test_bus_read_jsonl_resilient;
          Alcotest.test_case "non-finite payload" `Quick
            test_bus_non_finite_payload;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0xE7E7 |])
            prop_jsonl_mutations_are_typed;
          Alcotest.test_case "GEOMIX_LOG parsing" `Quick test_bus_env_level;
          Alcotest.test_case "pool lifecycle events" `Quick test_pool_bus_events;
          Alcotest.test_case "log replay reconstructs makespan" `Quick
            test_bus_reconstructs_makespan;
          Alcotest.test_case "factorize feeds every sink once" `Quick
            test_factorize_feeds_every_sink_once;
        ] );
      ( "bench gate",
        [
          Alcotest.test_case "json roundtrip" `Quick test_bench_json_roundtrip;
          Alcotest.test_case "gate directions" `Quick test_regression_gate_directions;
          Alcotest.test_case "gate expect" `Quick test_regression_gate_expect;
          Alcotest.test_case "file io" `Quick test_bench_json_file_io;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus round-trip" `Quick test_expo_roundtrip;
          Alcotest.test_case "lint rejects damage" `Quick
            test_expo_lint_rejects_damage;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0xE790 |])
            prop_expo_mutations_are_typed;
          Alcotest.test_case "snapshotter rotation" `Quick
            test_snapshotter_rotation;
          Alcotest.test_case "metrics json round-trip" `Quick
            test_metrics_json_roundtrip;
          Alcotest.test_case "span accumulation and codec" `Quick
            test_span_accumulation_and_json;
        ] );
      ( "instrumented executors",
        [
          Alcotest.test_case "pool metrics" `Quick test_pool_obs;
          Alcotest.test_case "serial pool metrics" `Quick test_pool_obs_serial;
          Alcotest.test_case "dtd declared bytes" `Quick test_dtd_declared_bytes;
          QCheck_alcotest.to_alcotest prop_bytes_schedule_independent;
        ] );
    ]
