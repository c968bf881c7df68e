module J = Geomix_obs.Jsonlite
module Metrics = Geomix_obs.Metrics
module Pool = Geomix_parallel.Pool
module Likelihood = Geomix_geostat.Likelihood
module Comm_map = Geomix_core.Comm_map

type params = { n : int; nb : int; workers : int; tail : float }

(* Tails: the highest percentile with ten of the window's ops beyond it
   (about 65 and 95 ops per 20 s on a 2-core host). *)
let coarse ~smoke =
  if smoke then { n = 64; nb = 16; workers = 0; tail = 0.8 }
  else { n = 512; nb = 64; workers = 0; tail = 0.8 }

let fine_par ~smoke =
  if smoke then { n = 64; nb = 8; workers = 2; tail = 0.9 }
  else { n = 384; nb = 16; workers = 2; tail = 0.9 }

(* What a timed op leaves behind — not the factor, so a window of them
   stays small. *)
type op = { k : int; eval : Likelihood.evaluation; maps : Ledger.maps }

let keep k (r : Problem.result) =
  {
    k;
    eval = r.Problem.eval;
    maps =
      { Ledger.ops = 1; pmap = r.Problem.pmap; motion = Problem.motion r;
        escalations = r.Problem.escalations };
  }

let shipped reg =
  Metrics.counter_value (Metrics.counter reg "cholesky.shipped_bytes")

(* Every [every]-th op against the library's own entry points, outside any
   timer; returns the largest relative error against exact FP64. *)
let check ~fail p (inp : Problem.inputs) ops ~every =
  Array.fold_left
    (fun worst (o, _) ->
      if o.k mod every <> 0 then worst
      else begin
        let cov = Problem.theta inp o.k in
        let locs = inp.Problem.locs and z = inp.Problem.z in
        let robust =
          Likelihood.evaluate_robust
            (Likelihood.mixed ~u_req:Problem.u_req ~nb:p.nb ())
            ~cov ~locs ~z
        in
        if not (Problem.same_eval robust o.eval) then
          fail (Printf.sprintf "op %d differs from Likelihood.evaluate_robust" o.k);
        let exact = Likelihood.evaluate Likelihood.Exact ~cov ~locs ~z in
        let e = Problem.rel_err ~exact o.eval in
        if not (e <= Problem.u_req) then
          fail (Printf.sprintf "op %d: loglik relative error %.3g exceeds u_req" o.k e);
        Float.max worst e
      end)
    0. ops

let run (cfg : Common.cfg) p =
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let off = Tracer.create ~enabled:false in
  let (inp, pool), setup_s =
    Common.setup_repeated cfg.Common.setups
      (fun () ->
        let inp = Problem.inputs ~seed:cfg.Common.seed ~n:p.n in
        let pool =
          if p.workers > 0 then Some (Pool.create ~num_workers:p.workers ()) else None
        in
        ignore
          (Problem.chain off ~op:(-1) ~factor:(Problem.robust ?pool ()) ~nb:p.nb inp
             (Problem.theta inp (-1)));
        (inp, pool))
      ~teardown:(fun (_, pool) -> Option.iter Pool.shutdown pool)
  in
  let untraced seconds =
    Common.window ~seconds (fun k ->
        keep k
          (Problem.chain off ~op:k ~factor:(Problem.robust ?pool ()) ~nb:p.nb inp
             (Problem.theta inp k)))
  in
  let note_indefinite ops =
    Array.iter
      (fun (o, _) ->
        if o.eval.Likelihood.status = Likelihood.Indefinite then
          fail (Printf.sprintf "op %d: indefinite" o.k))
      ops
  in
  let latencies ops = Array.map snd ops in
  let maps ops = Array.to_list (Array.map (fun (o, _) -> o.maps) ops) in
  let nt = (p.n + p.nb - 1) / p.nb in
  let sizes =
    [ ("n", J.Num (float_of_int p.n)); ("nb", J.Num (float_of_int p.nb));
      ("nt", J.Num (float_of_int nt)); ("workers", J.Num (float_of_int p.workers)) ]
  in
  let tracer = Tracer.create ~enabled:cfg.Common.trace in
  let attempted, metrics, header =
    if not cfg.Common.trace then begin
      let ops, elapsed = untraced cfg.Common.seconds in
      Option.iter Pool.shutdown pool;
      note_indefinite ops;
      ignore (check ~fail p inp ops ~every:10);
      let timing, timing_header = Common.timing ~tail:p.tail ~elapsed (latencies ops) in
      ( Array.length ops,
        timing
        @ [ Report.metric "setup_s" "s" setup_s;
            Report.metric "motion_frac" "ratio" (Ledger.motion_frac (maps ops)) ],
        sizes @ timing_header )
    end
    else begin
      (* Half the window untraced, half traced over the same op sequence:
         the throughput gap is the tracing overhead, and the two halves'
         results must agree bit for bit. *)
      let half = cfg.Common.seconds /. 2. in
      let plain, plain_elapsed = untraced half in
      Option.iter Pool.shutdown pool;
      let reg = Metrics.create () in
      let tpool =
        if p.workers > 0 then Some (Pool.create ~obs:reg ~num_workers:p.workers ()) else None
      in
      let facts = ref [] in
      let traced, traced_elapsed =
        Common.window ~seconds:half (fun k ->
            let before = shipped reg in
            let r =
              Problem.chain tracer ~op:k
                ~factor:(Ledger.profiled ?pool:tpool ~obs:reg facts)
                ~nb:p.nb inp (Problem.theta inp k)
            in
            let o = keep k r in
            let stc = o.maps.Ledger.motion.Comm_map.bytes_stc in
            if o.maps.Ledger.escalations = 0 && float_of_int (shipped reg - before) <> stc then
              fail
                (Printf.sprintf "op %d: computed STC bytes %.0f <> cholesky.shipped_bytes %d" k
                   stc (shipped reg - before));
            o)
      in
      (* The pool's registry before the empty-task probe dispatches on it;
         then the pool goes, because idle worker domains still join every
         stop-the-world minor collection and would slow the serial side
         measurements and checks below. *)
      let pool_metrics =
        Ledger.pool_metrics (Option.map (fun _ -> Metrics.snapshot reg) tpool)
          ~ops:(Array.length traced)
      in
      let empty_task =
        match tpool with
        | Some pl ->
          let m = Ledger.empty_tasks pl in
          Pool.shutdown pl;
          m
        | None -> Pool.with_pool ~num_workers:0 Ledger.empty_tasks
      in
      note_indefinite plain;
      note_indefinite traced;
      let worst = check ~fail p inp traced ~every:10 in
      let evals ops = Array.map (fun (o, _) -> o.eval) ops in
      let attempted, metrics, counts =
        Ledger.traced_halves tracer ~fail ~facts:!facts ~nb:p.nb inp
          ~factor_span:"core.factorize" ~plain:(evals plain, plain_elapsed)
          ~traced:(evals traced, traced_elapsed) ~maps:(maps traced) ~worst
          (empty_task :: pool_metrics)
      in
      (attempted, metrics, sizes @ counts)
    end
  in
  { Report.attempted; failures = List.rev !failures; metrics; header; tracer }
