module Profile = Geomix_obs.Profile
module Metrics = Geomix_obs.Metrics
module Flops = Geomix_precision.Flops
module Fpformat = Geomix_precision.Fpformat
module Mat = Geomix_linalg.Mat
module Pool = Geomix_parallel.Pool
module Dag_exec = Geomix_parallel.Dag_exec
module Cholesky_dag = Geomix_runtime.Cholesky_dag
module Precision_map = Geomix_core.Precision_map
module Comm_map = Geomix_core.Comm_map
module Mp_cholesky = Geomix_core.Mp_cholesky
module Rng = Geomix_util.Rng

type fact = { wall : float; measures : Profile.measure list; workers : int }

let m = Report.metric
let median_ms xs = if Array.length xs = 0 then 0. else 1e3 *. Quantile.median xs
let mean_of n x = if n = 0 then 0. else x /. float_of_int n
let dur (x : Profile.measure) = x.Profile.stop -. x.Profile.start

let busy_where p facts =
  List.fold_left
    (fun acc f ->
      List.fold_left (fun acc x -> if p x then acc +. dur x else acc) acc f.measures)
    0. facts

let count_where p facts =
  List.fold_left (fun acc f -> acc + List.length (List.filter p f.measures)) 0 facts

let profiled ?pool ?obs facts ~pmap ~cmap a =
  let workers = match pool with Some p -> max 1 (Pool.num_workers p) | None -> 1 in
  let c = Profile.collector () in
  let t0 = Unix.gettimeofday () in
  let r = Problem.robust ?pool ~profile:c ?obs () ~pmap ~cmap a in
  facts :=
    { wall = Unix.gettimeofday () -. t0; measures = Profile.measures c; workers } :: !facts;
  r

let classes =
  [ ("POTRF", "potrf", Flops.potrf); ("TRSM", "trsm", Flops.trsm);
    ("SYRK", "syrk", Flops.syrk); ("GEMM", "gemm", Flops.gemm) ]

let framework = Fpformat.framework_chain
let lower = String.lowercase_ascii

let chain_metrics tr ~facts ~nt ~nb =
  let ms name = median_ms (Tracer.durations tr name) in
  let nf = List.length facts in
  let per_class =
    List.concat_map
      (fun (cls, key, flops) ->
        let is x = x.Profile.cls = cls in
        let busy = busy_where is facts in
        let gflops =
          if busy <= 0. then 0.
          else float_of_int (count_where is facts) *. flops nb /. busy /. 1e9
        in
        [ m ("linalg.busy_ms." ^ key) "ms" (1e3 *. mean_of nf busy);
          m ("linalg.gflops." ^ key) "GFLOP/s" gflops ])
      classes
  in
  let per_precision =
    List.map
      (fun p ->
        let busy = busy_where (fun x -> x.Profile.prec = Fpformat.name p) facts in
        m ("linalg.busy_ms." ^ lower (Fpformat.name p)) "ms" (1e3 *. mean_of nf busy))
      framework
  in
  let busy = busy_where (fun _ -> true) facts in
  let capacity =
    List.fold_left (fun acc f -> acc +. (f.wall *. float_of_int f.workers)) 0. facts
  in
  let dag = Cholesky_dag.create ~nt in
  let preds =
    Dag_exec.predecessors ~num_tasks:(Cholesky_dag.num_tasks dag)
      ~successors:(Cholesky_dag.successors dag)
  in
  let cp =
    List.filter_map
      (fun f ->
        if f.measures = [] then None
        else Some (Profile.analyze ~preds f.measures).Profile.cp_frac)
      facts
    |> Array.of_list
  in
  [ m "geostat.assemble_ms" "ms" (ms "geostat.build_tiled");
    m "core.pmap_ms" "ms" (ms "core.pmap");
    m "core.cmap_ms" "ms" (ms "core.cmap");
    m "core.factorize_ms" "ms" (ms "core.factorize");
    m "core.solve_ms" "ms" (ms "core.solve") ]
  @ per_class @ per_precision
  @ [ m "runtime.tasks_per_op" "count"
        (mean_of nf (float_of_int (count_where (fun _ -> true) facts)));
      m "runtime.overhead_frac" "ratio"
        (if capacity <= 0. then 0. else 1. -. (busy /. capacity));
      m "runtime.critical_path_frac" "ratio"
        (if Array.length cp = 0 then 0. else Quantile.median cp) ]

type maps = {
  ops : int;
  pmap : Precision_map.t;
  motion : Comm_map.motion;
  escalations : int;
}

let map_metrics l =
  let n = List.fold_left (fun acc x -> acc + x.ops) 0 l in
  let per_op f =
    mean_of n (List.fold_left (fun acc x -> acc +. (float_of_int x.ops *. f x)) 0. l)
  in
  let frac p x = Option.value ~default:0. (List.assoc_opt p (Precision_map.fractions x.pmap)) in
  [ m "core.motion_stc_bytes" "B" (per_op (fun x -> x.motion.Comm_map.bytes_stc));
    m "core.motion_fp64_bytes" "B" (per_op (fun x -> x.motion.Comm_map.bytes_fp64)) ]
  @ List.map
      (fun p -> m ("core.tile_frac." ^ lower (Fpformat.name p)) "ratio" (per_op (frac p)))
      framework
  @ [ m "core.escalations_per_op" "count"
        (mean_of n (float_of_int (List.fold_left (fun acc x -> acc + x.escalations) 0 l))) ]

let motion_frac l =
  let sum f = List.fold_left (fun acc x -> acc +. (float_of_int x.ops *. f x.motion)) 0. l in
  sum (fun mo -> mo.Comm_map.bytes_stc) /. sum (fun mo -> mo.Comm_map.bytes_fp64)

let pool_metrics snap ~ops =
  let find name = Option.bind snap (fun s -> Metrics.find s name) in
  let wait q =
    match find "pool.queue_wait_s" with
    | Some (Metrics.Histogram h) when h.Metrics.count > 0 -> 1e6 *. Metrics.quantile h q
    | _ -> 0.
  in
  let idle =
    match find "pool.idle_waits" with Some (Metrics.Counter c) -> c | _ -> 0
  in
  [ m "parallel.queue_wait_us_p50" "us" (wait 0.5);
    m "parallel.queue_wait_us_p99" "us" (wait 0.99);
    m "parallel.idle_waits_per_op" "count" (mean_of ops (float_of_int idle)) ]

let time f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

let rounding () =
  let tile = Mat.init ~rows:64 ~cols:64 (fun i j -> 10. *. sin (float_of_int ((64 * i) + j))) in
  let reps = 20 in
  List.map
    (fun s ->
      let batch () =
        time (fun () ->
            for _ = 1 to reps do
              ignore (Sys.opaque_identity (Mat.rounded s tile))
            done)
        /. float_of_int (reps * 64 * 64)
      in
      let ns = 1e9 *. Quantile.median (Array.init 3 (fun _ -> batch ())) in
      m ("precision.round_ns_per_elem." ^ lower (Fpformat.scalar_name s)) "ns" ns)
    Fpformat.[ S_fp32; S_fp16; S_bf16; S_fp8_e4m3 ]

let empty_tasks pool =
  let dag = Cholesky_dag.create ~nt:24 in
  let num_tasks = Cholesky_dag.num_tasks dag in
  let run () =
    time (fun () ->
        Dag_exec.run ~pool ~num_tasks ~in_degree:(Cholesky_dag.in_degree dag)
          ~successors:(Cholesky_dag.successors dag) ~execute:ignore ())
    /. float_of_int num_tasks
  in
  m "runtime.empty_task_us" "us" (1e6 *. Quantile.median (Array.init 5 (fun _ -> run ())))

let synthesize ~n ~reps =
  let locs =
    Geomix_geostat.Locations.jittered_grid_2d ~rng:(Rng.create ~seed:n) ~n
  in
  let one i =
    time (fun () ->
        Geomix_geostat.Field.synthesize ~rng:(Rng.create ~seed:i) ~cov:Problem.data_cov
          locs)
  in
  m "geostat.synthesize_ms" "ms" (median_ms (Array.init reps one))

let emulation ~nb (inp : Problem.inputs) ~reps =
  let one k =
    let a = Geomix_geostat.Covariance.build_tiled (Problem.theta inp k) inp.Problem.locs ~nb in
    let b = Geomix_tile.Tiled.copy a in
    let busy pmap a =
      let c = Profile.collector () in
      let w0 = Gc.minor_words () in
      Mp_cholesky.factorize ~profile:c ~pmap a;
      let words = Gc.minor_words () -. w0 in
      (List.fold_left (fun acc x -> acc +. dur x) 0. (Profile.measures c), words)
    in
    let pmap = Precision_map.of_tiled ~u_req:Problem.u_req a in
    let mixed, words = busy pmap a in
    let fp64, _ = busy (Precision_map.uniform ~nt:(Precision_map.nt pmap) Fpformat.Fp64) b in
    (mixed /. fp64, words /. 1e6)
  in
  let runs = Array.init reps one in
  [ m "linalg.emul_slowdown" "ratio" (Quantile.median (Array.map fst runs));
    m "linalg.minor_mwords_per_op" "Mwords" (Quantile.median (Array.map snd runs)) ]

let traced_halves tr ~fail ~facts ~nb (inp : Problem.inputs) ~factor_span
    ~plain:(plain, plain_elapsed) ~traced:(traced, traced_elapsed) ~maps ~worst extra =
  Array.iteri
    (fun k e ->
      if k < Array.length plain && not (Problem.same_eval e plain.(k)) then
        fail (Printf.sprintf "op %d: traced result differs from untraced" k))
    traced;
  let n = Array.length inp.Problem.z in
  let thr ops elapsed = float_of_int (Array.length ops) /. elapsed in
  let roots = Tracer.total tr "op" in
  let covered =
    List.fold_left (fun acc s -> acc +. Tracer.total tr s) 0. (factor_span :: Problem.chain_spans)
  in
  let metrics =
    chain_metrics tr ~facts ~nt:((n + nb - 1) / nb) ~nb
    @ map_metrics maps @ rounding ()
    @ [ synthesize ~n ~reps:3 ]
    @ emulation ~nb inp ~reps:2
    @ extra
    @ [ m "geostat.loglik_rel_err" "ratio" worst;
        m "obs.trace_overhead_frac" "ratio"
          (1. -. (thr traced traced_elapsed /. thr plain plain_elapsed));
        m "obs.span_coverage_frac" "ratio" (if roots > 0. then covered /. roots else 0.) ]
  in
  let count xs = Geomix_obs.Jsonlite.Num (float_of_int (Array.length xs)) in
  ( Array.length plain + Array.length traced,
    metrics,
    [ ("ops_untraced", count plain); ("ops_traced", count traced) ] )
