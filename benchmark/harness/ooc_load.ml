module J = Geomix_obs.Jsonlite
module Profile = Geomix_obs.Profile
module Pool = Geomix_parallel.Pool
module Likelihood = Geomix_geostat.Likelihood
module Covariance = Geomix_geostat.Covariance
module Mp_cholesky = Geomix_core.Mp_cholesky
module Ooc = Geomix_core.Ooc_cholesky
module Store = Geomix_ooc.Store

type params = { n : int; nb : int; budget_tiles : int; tail : float }

(* About 65 ops per 20 s on a 2-core host: ten lie beyond p80. *)
let tight ~smoke =
  if smoke then { n = 64; nb = 16; budget_tiles = 3; tail = 0.8 }
  else { n = 384; nb = 32; budget_tiles = 10; tail = 0.8 }

(* [Ooc_cholesky.factorize] raises where [factorize_robust] would
   escalate; an indefinite pivot is reported the way the in-core chain
   reports it. *)
let factor ~store ~pmap ~cmap a =
  let report outcome = { Mp_cholesky.outcome; escalations = []; rounds = 1; pmap } in
  match Ooc.factorize ~checkpoint_every:1 ~cmap ~store ~pmap a with
  | () -> report Mp_cholesky.Factorized
  | exception Geomix_linalg.Blas.Not_positive_definite p -> report (Mp_cholesky.Indefinite p)

(* Store traffic of one op. *)
type traffic = {
  spills : int;
  loads : int;
  checkpoints : int;
  spilled : int;
  spilled_fp64 : int;
  reread : int;
}

let traffic st =
  {
    spills = Store.spills st;
    loads = Store.loads st;
    checkpoints = Store.checkpoints st;
    spilled = Store.spilled_bytes st;
    spilled_fp64 = Store.spilled_bytes_fp64 st;
    reread = Store.reread_bytes st;
  }

type op = { eval : Likelihood.evaluation; maps : Ledger.maps; io : traffic }

let run (cfg : Common.cfg) p =
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let budget = p.budget_tiles * p.nb * p.nb * 8 in
  let store_dir k = Filename.concat cfg.Common.scratch (Printf.sprintf "ooc-%d" k) in
  let fresh_store k =
    let dir = store_dir k in
    Common.rm_rf dir;
    Store.create ~budget ~dir ()
  in
  let off = Tracer.create ~enabled:false in
  let one tr inp k st =
    Problem.chain tr ~op:k ~factor_span:"ooc.factorize" ~factor:(factor ~store:st) ~nb:p.nb
      inp (Problem.theta inp k)
  in
  let inp, setup_s =
    Common.setup_repeated cfg.Common.setups
      (fun () ->
        let inp = Problem.inputs ~seed:cfg.Common.seed ~n:p.n in
        ignore (one off inp (-1) (fresh_store (-1)));
        Common.rm_rf (store_dir (-1));
        inp)
      ~teardown:ignore
  in
  let tracer = Tracer.create ~enabled:cfg.Common.trace in
  let facts = ref [] in
  (* The in-core reference factorization of the op's matrix under the op's
     maps, outside the op timer; in the traced run it also feeds the
     kernel ledger through [?profile]. *)
  let incore ~k ~exact_every (r : Problem.result) st =
    let cov = Problem.theta inp k in
    let indefinite = r.Problem.eval.Likelihood.status = Likelihood.Indefinite in
    if indefinite then fail (Printf.sprintf "op %d: indefinite" k)
    else begin
      let b = Covariance.build_tiled cov inp.Problem.locs ~nb:p.nb in
      let c = Profile.collector () in
      let t0 = Common.now () in
      Tracer.span tracer ~op:k "core.factorize" (fun _ ->
          Mp_cholesky.factorize ?profile:(if cfg.Common.trace then Some c else None)
            ~cmap:r.Problem.cmap ~pmap:r.Problem.pmap b);
      facts :=
        { Ledger.wall = Common.now () -. t0; measures = Profile.measures c; workers = 1 }
        :: !facts;
      if not (Problem.same_factor r.Problem.a b) then
        fail (Printf.sprintf "op %d: out-of-core factor differs from the in-core factor" k)
    end;
    let err =
      if indefinite || k mod exact_every <> 0 then 0.
      else
        let exact =
          Likelihood.evaluate Likelihood.Exact ~cov ~locs:inp.Problem.locs ~z:inp.Problem.z
        in
        let e = Problem.rel_err ~exact r.Problem.eval in
        if not (e <= Problem.u_req) then
          fail (Printf.sprintf "op %d: loglik relative error %.3g exceeds u_req" k e);
        e
    in
    let io = traffic st in
    Common.rm_rf (store_dir k);
    let maps =
      { Ledger.ops = 1; pmap = r.Problem.pmap; motion = Problem.motion r; escalations = 0 }
    in
    ({ eval = r.Problem.eval; maps; io }, err)
  in
  let phase tr ~seconds ~exact_every =
    Common.window_staged ~seconds ~prepare:fresh_store
      ~finish:(fun k (r, st) -> incore ~k ~exact_every r st)
      (fun k st -> (one tr inp k st, st))
  in
  let nt = (p.n + p.nb - 1) / p.nb in
  let sizes =
    [ ("n", J.Num (float_of_int p.n)); ("nb", J.Num (float_of_int p.nb));
      ("nt", J.Num (float_of_int nt)); ("budget_tiles", J.Num (float_of_int p.budget_tiles)) ]
  in
  let ops_of results = Array.map (fun ((o, _), _) -> o) results in
  let maps ops = Array.to_list (Array.map (fun o -> o.maps) ops) in
  let attempted, metrics, header =
    if not cfg.Common.trace then begin
      let results, elapsed = phase off ~seconds:cfg.Common.seconds ~exact_every:10 in
      let ops = ops_of results in
      let timing, timing_header = Common.timing ~tail:p.tail ~elapsed (Array.map snd results) in
      ( Array.length ops,
        timing
        @ [ Report.metric "setup_s" "s" setup_s;
            Report.metric "motion_frac" "ratio" (Ledger.motion_frac (maps ops)) ],
        sizes @ timing_header )
    end
    else begin
      let half = cfg.Common.seconds /. 2. in
      let plain, plain_elapsed = phase off ~seconds:half ~exact_every:max_int in
      facts := [];
      let traced, traced_elapsed = phase tracer ~seconds:half ~exact_every:1 in
      let ops = ops_of traced in
      let n = Array.length ops in
      let per_op name f =
        let unit_ = if String.ends_with ~suffix:"bytes_per_op" name then "B" else "count" in
        let total = Array.fold_left (fun acc o -> acc + f o.io) 0 ops in
        Report.metric name unit_ (if n = 0 then 0. else float_of_int total /. float_of_int n)
      in
      let worst = Array.fold_left (fun acc ((_, e), _) -> Float.max acc e) 0. traced in
      let evals results = Array.map (fun o -> o.eval) (ops_of results) in
      let attempted, metrics, counts =
        Ledger.traced_halves tracer ~fail ~facts:!facts ~nb:p.nb inp
          ~factor_span:"ooc.factorize" ~plain:(evals plain, plain_elapsed)
          ~traced:(evals traced, traced_elapsed) ~maps:(maps ops) ~worst
          (Pool.with_pool ~num_workers:0 Ledger.empty_tasks
          :: Ledger.pool_metrics None ~ops:n
          @ [ per_op "ooc.spills_per_op" (fun t -> t.spills);
              per_op "ooc.loads_per_op" (fun t -> t.loads);
              per_op "ooc.checkpoints_per_op" (fun t -> t.checkpoints);
              per_op "ooc.spilled_bytes_per_op" (fun t -> t.spilled);
              per_op "ooc.spilled_fp64_bytes_per_op" (fun t -> t.spilled_fp64);
              per_op "ooc.reread_bytes_per_op" (fun t -> t.reread);
              Report.metric "ooc.overhead_ms" "ms"
                (Ledger.median_ms (Tracer.durations tracer "ooc.factorize")
                -. Ledger.median_ms (Tracer.durations tracer "core.factorize")) ])
      in
      (attempted, metrics, sizes @ counts)
    end
  in
  { Report.attempted; failures = List.rev !failures; metrics; header; tracer }
