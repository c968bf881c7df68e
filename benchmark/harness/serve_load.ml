module J = Geomix_obs.Jsonlite
module Metrics = Geomix_obs.Metrics
module Span = Geomix_obs.Span
module Pool = Geomix_parallel.Pool
module Server = Geomix_serve.Server
module Cache = Geomix_serve.Cache
module P = Geomix_serve.Protocol
module Covariance = Geomix_geostat.Covariance
module Likelihood = Geomix_geostat.Likelihood
module Comm_map = Geomix_core.Comm_map
module Rng = Geomix_util.Rng

type params = { n : int; nb : int; clients : int }

let mix ~smoke =
  if smoke then { n = 32; nb = 16; clients = 2 } else { n = 64; nb = 16; clients = 2 }

(* The four recurring shapes are part of the workload, like its sizes: the
   run seed draws the request stream (kinds, shapes, data and fresh
   sites), not these.  Their norm rules give FP32, FP16_32, FP32 and
   all-FP64 off-diagonal tiles, and none of them escalates, so their
   artifacts stay cached. *)
let shapes p =
  let shape i ~u_req ~family ~sigma2 ~beta ~nu =
    { P.n = p.n; nb = p.nb; u_req; family; sigma2; beta; nu;
      nugget = Covariance.default_nugget; locs_seed = 42 + i; data_seed = 0 }
  in
  [| shape 0 ~u_req:1e-6 ~family:Covariance.Sqexp ~sigma2:1.0 ~beta:0.1 ~nu:0.5;
     shape 1 ~u_req:1e-4 ~family:Covariance.Matern ~sigma2:1.0 ~beta:0.2 ~nu:1.0;
     shape 2 ~u_req:1e-6 ~family:Covariance.Matern ~sigma2:1.0 ~beta:0.1 ~nu:0.5;
     shape 3 ~u_req:1e-8 ~family:Covariance.Powexp ~sigma2:1.5 ~beta:0.15 ~nu:1.0 |]

(* Client [c]'s request stream: a pure function of (seed, c, slot), so the
   untraced and traced halves replay the same requests. *)
let generator ~seed ~shapes c =
  let rng = Rng.create ~seed:(Hashtbl.hash (seed, c)) in
  fun slot ->
    let base = shapes.(Rng.int rng (Array.length shapes)) in
    let locs_seed =
      if Rng.float rng < 0.1 then (1 lsl 30) + Rng.int rng (1 lsl 30) else base.P.locs_seed
    in
    let spec = { base with P.locs_seed; data_seed = Rng.int rng (1 lsl 30) } in
    let u = Rng.float rng in
    let payload =
      if u < 0.7 then P.Likelihood spec
      else if u < 0.9 then P.Mc_batch { spec; replicates = 4 }
      else P.Predict { spec; n_new = 8; pred_seed = Rng.int rng (1 lsl 30) }
    in
    { P.id = Printf.sprintf "c%d-%d" c slot; priority = P.Normal; timeout_s = None; payload }

let plain id payload = { P.id; priority = P.Normal; timeout_s = None; payload }

(* {1 Socket client} *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | exception e ->
    Unix.close fd;
    raise e

let rec connect_retry path attempts =
  match connect path with
  | conn -> conn
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when attempts > 1 ->
    Thread.delay 0.01;
    connect_retry path (attempts - 1)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One request: encode, send, then read frames until the terminal reply
   for our id; each step is a span under the request's root. *)
let roundtrip tr ~lane ~op ic oc (req : P.request) =
  Tracer.span tr ~lane ~op "serve.request" (fun root ->
      let step name f = Tracer.span tr ~lane ~parent:root ~op name (fun _ -> f ()) in
      let json = step "serve.encode" (fun () -> P.request_to_json req) in
      match step "serve.send" (fun () -> P.write_frame oc json) with
      | exception Sys_error e -> Error e
      | () ->
        let rec await () =
          match step "serve.await" (fun () -> P.read_frame ic) with
          | Error e -> Error e
          | Ok j -> (
            match step "serve.decode" (fun () -> P.frame_of_json j) with
            | Error e -> Error e
            | Ok (P.Progress _) -> await ()
            | Ok (P.Reply { id; reply; footer }) ->
              if id = req.P.id then Ok (reply, footer)
              else Error (Printf.sprintf "reply for %S while awaiting %S" id req.P.id))
        in
        await ())

let factorizing_spec = function
  | P.Likelihood s | P.Mc_batch { spec = s; _ } -> Some s
  | P.Predict _ | P.Ping | P.Health | P.Stats _ | P.Shutdown -> None

let failure_of (req : P.request) reply =
  match (req.P.payload, reply) with
  | _, Error e -> Some ("transport error: " ^ e)
  | _, Ok (P.Error_r { code; message }) ->
    Some (Printf.sprintf "%s error reply: %s" (P.error_code_name code) message)
  | _, Ok (P.Likelihood_r { status = P.Indefinite; _ } | P.Mc_r { status = P.Indefinite; _ }) ->
    Some "indefinite"
  | P.Likelihood _, Ok (P.Likelihood_r _)
  | P.Mc_batch _, Ok (P.Mc_r _)
  | P.Predict _, Ok (P.Predict_r _) ->
    None
  | _, Ok _ -> Some "reply of the wrong kind"

let escalations = function
  | P.Likelihood_r { status = P.Escalated k; _ } | P.Mc_r { status = P.Escalated k; _ } -> k
  | _ -> 0

(* A reply's numbers, bit for bit, tagged with its kind. *)
let digest reply =
  let tag, xs =
    match reply with
    | P.Likelihood_r x -> ("l", [ x.loglik; x.log_det; x.quad_form ])
    | P.Mc_r x -> ("m", x.mean_loglik :: Array.to_list x.logliks)
    | P.Predict_r x -> ("p", Array.to_list x.mean @ Array.to_list x.variance)
    | P.Pong | P.Health_r _ | P.Stats_r _ | P.Shutdown_r | P.Error_r _ -> ("-", [])
  in
  Digest.string
    (String.concat " " (tag :: List.map (fun x -> Int64.to_string (Int64.bits_of_float x)) xs))

(* What one client keeps of its requests: aggregates rather than replies,
   so the benchmark's own memory does not grow with throughput (peak RSS
   is an end-to-end metric). *)
type shape_count = { mutable count : int; mutable escalated : int }

type tally = {
  keep_digests : bool;  (** to compare two runs of one request stream *)
  keep_footers : bool;
  mutable lat : float list;
  mutable kinds : int * int * int;  (** likelihood, Monte-Carlo, predict *)
  shapes : (Cache.key, shape_count) Hashtbl.t;  (** factorizing requests *)
  mutable lik_seen : int;
  mutable sampled : (P.request * P.reply) list;  (** every 100th likelihood *)
  digests : (int, Digest.t) Hashtbl.t;  (** by slot *)
  mutable footers : (float * P.footer) list;  (** with the round trip *)
  mutable failures : string list;
}

let tally ~keep_digests ~keep_footers =
  {
    keep_digests;
    keep_footers;
    lat = [];
    kinds = (0, 0, 0);
    shapes = Hashtbl.create 64;
    lik_seen = 0;
    sampled = [];
    digests = Hashtbl.create 16;
    footers = [];
    failures = [];
  }

let note t ~slot (req : P.request) rtt reply =
  t.lat <- rtt :: t.lat;
  let l, m, p = t.kinds in
  (t.kinds <-
     match req.P.payload with
     | P.Likelihood _ -> (l + 1, m, p)
     | P.Mc_batch _ -> (l, m + 1, p)
     | _ -> (l, m, p + 1));
  let reply_only = Result.map fst reply in
  Option.iter
    (fun f -> t.failures <- (req.P.id ^ ": " ^ f) :: t.failures)
    (failure_of req reply_only);
  match reply with
  | Error _ -> ()
  | Ok (r, footer) ->
    if t.keep_footers then Option.iter (fun f -> t.footers <- (rtt, f) :: t.footers) footer;
    if t.keep_digests then Hashtbl.replace t.digests slot (digest r);
    Option.iter
      (fun spec ->
        let key = Cache.key_of_spec spec in
        let c =
          match Hashtbl.find_opt t.shapes key with
          | Some c -> c
          | None ->
            let c = { count = 0; escalated = 0 } in
            Hashtbl.add t.shapes key c;
            c
        in
        c.count <- c.count + 1;
        c.escalated <- c.escalated + escalations r)
      (factorizing_spec req.P.payload);
    match (req.P.payload, r) with
    | P.Likelihood _, P.Likelihood_r _ ->
      if t.lik_seen mod 100 = 0 then t.sampled <- (req, r) :: t.sampled;
      t.lik_seen <- t.lik_seen + 1
    | _ -> ()

let requests t = List.length t.lat

let cov_of (s : P.spec) =
  let nugget = s.P.nugget and sigma2 = s.P.sigma2 and beta = s.P.beta in
  match s.P.family with
  | Covariance.Sqexp -> Covariance.sqexp ~nugget ~sigma2 ~beta ()
  | Covariance.Matern -> Covariance.matern ~nugget ~sigma2 ~beta ~nu:s.P.nu ()
  | Covariance.Powexp -> Covariance.powexp ~nugget ~sigma2 ~beta ~power:s.P.nu ()
  | Covariance.Spherical -> Covariance.spherical ~nugget ~sigma2 ~beta ()

(* {1 Server lifecycle} *)

type live = {
  server : Server.t;
  pool : Pool.t;
  reg : Metrics.t;
  thread : Thread.t;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  warm : tally;  (** one likelihood per recurring shape *)
}

let off = Tracer.create ~enabled:false

let start ~traced ~path ~shapes =
  let reg = Metrics.create () in
  let pool = if traced then Pool.create ~obs:reg () else Pool.create () in
  let server =
    Server.create ~obs:reg ~trace_sample:(if traced then 1.0 else 0.) ~pool ()
  in
  let thread = Thread.create (fun () -> ignore (Server.serve_unix server ~path ())) () in
  let fd, ic, oc = connect_retry path 500 in
  (match roundtrip off ~lane:0 ~op:(-1) ic oc (plain "ready" P.Ping) with
  | Ok (P.Pong, _) -> ()
  | _ -> failwith "serve_mix: the server did not answer ping");
  let warm = tally ~keep_digests:false ~keep_footers:traced in
  Array.iteri
    (fun slot spec ->
      let req =
        plain (Printf.sprintf "warm-%d" slot) (P.Likelihood { spec with P.data_seed = 999 })
      in
      let t0 = Common.now () in
      let reply = roundtrip off ~lane:0 ~op:(-1) ic oc req in
      note warm ~slot req (Common.now () -. t0) reply)
    shapes;
  { server; pool; reg; thread; fd; ic; oc; warm }

let stop live =
  ignore (roundtrip off ~lane:0 ~op:(-1) live.ic live.oc (plain "stop" P.Shutdown));
  close_quietly live.fd;
  Thread.join live.thread;
  Pool.shutdown live.pool

(* Closed-loop clients until the deadline; each finishes the request it
   has in flight.  The window ends when the last reply arrives. *)
let drive tr ~path ~seconds ~clients ~gen ~keep_digests =
  let t0 = Common.now () in
  let deadline = t0 +. seconds in
  let tallies =
    Array.init clients (fun _ -> tally ~keep_digests ~keep_footers:(Tracer.enabled tr))
  in
  let finish = Array.make clients t0 in
  let client c () =
    let t = tallies.(c) in
    (match connect path with
    | exception Unix.Unix_error (e, _, _) ->
      t.failures <- Printf.sprintf "client %d could not connect: %s" c (Unix.error_message e)
                    :: t.failures
    | fd, ic, oc ->
      let next = gen c in
      let rec loop slot =
        if Common.now () < deadline then begin
          let req = next slot in
          let t0 = Common.now () in
          let reply = roundtrip tr ~lane:c ~op:((c * 1_000_000) + slot) ic oc req in
          note t ~slot req (Common.now () -. t0) reply;
          if Result.is_ok reply then loop (slot + 1)
        end
      in
      loop 0;
      close_quietly fd);
    finish.(c) <- Common.now ()
  in
  List.init clients (fun c -> Thread.create (client c) ()) |> List.iter Thread.join;
  (Array.to_list tallies, Array.fold_left Float.max t0 finish -. t0)

(* {1 Checks} *)

(* Each client's every 100th likelihood reply against [Server.handle] on a
   fresh reference server; returns the largest relative error against
   exact FP64.  That error is reported, not gated: the norm rule bounds
   the factorization's backward error by [u_req], and smooth kernels at
   this site density are conditioned badly enough (κ ≈ 1e6 at the 1e-6
   nugget) that the log-likelihood's relative error can exceed it. *)
let reference_checks ~fail tallies =
  let pool = Pool.create ~num_workers:0 () in
  let reference = Server.create ~pool () in
  let check worst ((req : P.request), reply) =
    match (req.P.payload, reply) with
    | P.Likelihood spec, P.Likelihood_r l ->
      if digest reply <> digest (Server.handle reference req) then
        fail (Printf.sprintf "%s differs from the reference server" req.P.id);
      let cov = cov_of spec in
      let locs = (Server.build_artifact (Cache.key_of_spec spec)).Cache.locs in
      let rng = Rng.create ~seed:spec.P.data_seed in
      let z = Geomix_geostat.Field.synthesize ~rng ~cov locs in
      let exact = (Likelihood.evaluate Likelihood.Exact ~cov ~locs ~z).Likelihood.loglik in
      Float.max worst (Float.abs (l.loglik -. exact) /. Float.abs exact)
    | _ -> worst
  in
  let worst =
    List.fold_left (fun w t -> List.fold_left check w t.sampled) 0. tallies
  in
  Pool.shutdown pool;
  worst

(* A shape's requested maps and computed motion, for [ops] requests. *)
let shape_maps (key : Cache.key) ~ops ~escalations =
  let art = Server.build_artifact key in
  { Ledger.ops; pmap = art.Cache.pmap;
    motion = Comm_map.motion art.Cache.cmap art.Cache.pmap ~nb:key.Cache.nb; escalations }

(* Factorizing requests counted by shape (one table per client). *)
let op_maps tables =
  let merged = Hashtbl.create 64 in
  List.iter
    (Hashtbl.iter (fun key c ->
         let n, e = Option.value ~default:(0, 0) (Hashtbl.find_opt merged key) in
         Hashtbl.replace merged key (n + c.count, e + c.escalated)))
    tables;
  Hashtbl.fold
    (fun key (ops, escalations) acc -> shape_maps key ~ops ~escalations :: acc)
    merged []

(* [motion_frac] is over the recurring shapes, one factorization each: the
   seed draws which shapes the requests bring and how many fresh sites,
   but not these shapes, so the count is exact across seeds. *)
let recurring_maps shapes =
  Array.to_list
    (Array.map (fun s -> shape_maps (Cache.key_of_spec s) ~ops:1 ~escalations:0) shapes)

(* {1 Side measurements of the serve layer} *)

let codec_us shape =
  let req = plain "c0-0" (P.Likelihood shape) in
  let reply =
    P.Reply
      {
        id = "c0-0";
        reply =
          P.Likelihood_r
            { loglik = -123.456789; log_det = -98.7654321; quad_form = 61.2345678;
              status = P.Clean; cache_hit = true };
        footer = None;
      }
  in
  let body j =
    let s = P.frame_to_string j in
    match J.of_string (String.sub s 4 (String.length s - 4)) with
    | Ok j -> j
    | Error e -> failwith e
  in
  let once () =
    ignore (Sys.opaque_identity (P.request_of_json (body (P.request_to_json req))));
    ignore (Sys.opaque_identity (P.frame_of_json (body (P.frame_to_json reply))))
  in
  let reps = 200 in
  let batch () =
    let t0 = Common.now () in
    for _ = 1 to reps do
      once ()
    done;
    (Common.now () -. t0) /. float_of_int reps
  in
  Report.metric "serve.codec_us" "us"
    (1e6 *. Quantile.median (Array.init 5 (fun _ -> batch ())))

let build_artifact_ms shape ~reps =
  let one i =
    let key = Cache.key_of_spec { shape with P.locs_seed = (1 lsl 40) + i } in
    let t0 = Common.now () in
    ignore (Sys.opaque_identity (Server.build_artifact key));
    Common.now () -. t0
  in
  Report.metric "serve.build_artifact_ms" "ms" (Ledger.median_ms (Array.init reps one))

(* {1 The workload} *)

let run (cfg : Common.cfg) p =
  let path = Filename.concat cfg.Common.scratch "serve.sock" in
  let shapes = shapes p in
  let gen = generator ~seed:cfg.Common.seed ~shapes in
  let live, setup_s =
    Common.setup_repeated cfg.Common.setups
      (fun () -> start ~traced:false ~path ~shapes)
      ~teardown:stop
  in
  let extra = ref [] in
  let fail msg = extra := msg :: !extra in
  let sum f ts = List.fold_left (fun acc t -> acc + f t) 0 ts in
  let kinds ts =
    List.fold_left
      (fun (l, m, p) t ->
        let l', m', p' = t.kinds in
        (l + l', m + m', p + p'))
      (0, 0, 0) ts
  in
  let latencies ts = Array.of_list (List.concat_map (fun t -> t.lat) ts) in
  let sizes ts =
    let l, m, q = kinds ts in
    [ ("n", J.Num (float_of_int p.n)); ("nb", J.Num (float_of_int p.nb));
      ("clients", J.Num (float_of_int p.clients));
      ("pool_workers", J.Num (float_of_int (Pool.num_workers live.pool)));
      ("requests", J.Num (float_of_int (sum requests ts)));
      ("likelihood", J.Num (float_of_int l)); ("mc_batch", J.Num (float_of_int m));
      ("predict", J.Num (float_of_int q)) ]
  in
  let cache_window server f =
    let before = Cache.stats (Server.cache server) in
    let r = f () in
    let after = Cache.stats (Server.cache server) in
    ( r,
      { Cache.hits = after.Cache.hits - before.Cache.hits;
        misses = after.Cache.misses - before.Cache.misses;
        evictions = after.Cache.evictions - before.Cache.evictions } )
  in
  let cache_header (s : Cache.stats) =
    [ ("cache_hits", J.Num (float_of_int s.Cache.hits));
      ("cache_misses", J.Num (float_of_int s.Cache.misses));
      ("cache_evictions", J.Num (float_of_int s.Cache.evictions)) ]
  in
  let tracer = Tracer.create ~enabled:cfg.Common.trace in
  let attempted, tallies, metrics, header =
    if not cfg.Common.trace then begin
      let (ts, elapsed), cstats =
        cache_window live.server (fun () ->
            drive off ~path ~seconds:cfg.Common.seconds ~clients:p.clients ~gen
              ~keep_digests:false)
      in
      stop live;
      ignore (reference_checks ~fail ts);
      let lat = latencies ts in
      (* Some 9 000 requests per 20 s: over 90 lie beyond p99. *)
      let timing, timing_header = Common.timing ~tail:0.99 ~elapsed lat in
      ( Array.length lat,
        live.warm :: ts,
        timing
        @ [ Report.metric "setup_s" "s" setup_s;
            Report.metric "motion_frac" "ratio" (Ledger.motion_frac (recurring_maps shapes)) ],
        sizes ts @ cache_header cstats @ timing_header )
    end
    else begin
      let half = cfg.Common.seconds /. 2. in
      let plain, plain_elapsed =
        drive off ~path ~seconds:half ~clients:p.clients ~gen ~keep_digests:true
      in
      stop live;
      let tlive = start ~traced:true ~path ~shapes in
      let (ts, elapsed), cstats =
        cache_window tlive.server (fun () ->
            drive tracer ~path ~seconds:half ~clients:p.clients ~gen ~keep_digests:true)
      in
      let pool_snapshot = Metrics.snapshot tlive.reg in
      let empty_task = Ledger.empty_tasks tlive.pool in
      stop tlive;
      List.iteri
        (fun c t ->
          let earlier = (List.nth plain c).digests in
          Hashtbl.iter
            (fun slot d ->
              match Hashtbl.find_opt earlier slot with
              | Some d' when d' <> d ->
                fail (Printf.sprintf "c%d-%d: traced reply differs from untraced" c slot)
              | _ -> ())
            t.digests)
        ts;
      let worst = reference_checks ~fail ts in
      (* Conservation: the traced requests' footer bytes sum to the
         registry's RAW-edge total, and so do the computed STC bytes when
         no request escalated (an escalated request ships extra rounds). *)
      let all = tlive.warm :: ts in
      let registry =
        Metrics.counter_value (Metrics.counter tlive.reg "cholesky.shipped_bytes")
      in
      let footers = List.concat_map (fun t -> t.footers) ts in
      let footer_bytes =
        List.fold_left (fun acc (_, f) -> acc + f.P.f_span.Span.s_bytes_stc) 0
          (footers @ tlive.warm.footers)
      in
      if footer_bytes <> registry then
        fail
          (Printf.sprintf "footer bytes %d <> cholesky.shipped_bytes %d" footer_bytes registry);
      let all_maps = op_maps (List.map (fun t -> t.shapes) all) in
      if List.for_all (fun m -> m.Ledger.escalations = 0) all_maps then begin
        let computed =
          List.fold_left
            (fun acc m ->
              acc +. (float_of_int m.Ledger.ops *. m.Ledger.motion.Comm_map.bytes_stc))
            0. all_maps
        in
        if computed <> float_of_int registry then
          fail
            (Printf.sprintf "computed STC bytes %.0f <> cholesky.shipped_bytes %d" computed
               registry)
      end;
      let arr f = Array.of_list (List.map f footers) in
      let exec = arr (fun (_, f) -> f.P.f_wall_s) in
      let ms_q xs q = if Array.length xs = 0 then 0. else 1e3 *. Quantile.quantile xs q in
      let maps = op_maps (List.map (fun t -> t.shapes) ts) in
      let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
      let escalated =
        sum
          (fun t ->
            Hashtbl.fold
              (fun _ c acc -> if c.escalated > 0 then acc + c.count else acc)
              t.shapes 0)
          ts
      in
      let rtt = latencies ts in
      let n_plain = sum requests plain in
      let roots = Tracer.total tracer "serve.request" in
      let covered =
        List.fold_left (fun acc s -> acc +. Tracer.total tracer s) 0.
          [ "serve.encode"; "serve.send"; "serve.await"; "serve.decode" ]
      in
      (* The chain's own layers at the service's problem size, serially:
         past the socket the requests are opaque. *)
      let side = Tracer.create ~enabled:true in
      let inp = Problem.inputs ~seed:cfg.Common.seed ~n:p.n in
      let facts = ref [] in
      for k = 0 to 19 do
        ignore
          (Problem.chain side ~op:k ~factor:(Ledger.profiled facts) ~nb:p.nb inp
             (Problem.theta inp k))
      done;
      let metrics =
        Ledger.chain_metrics side ~facts:!facts ~nt:((p.n + p.nb - 1) / p.nb) ~nb:p.nb
        @ Ledger.map_metrics maps
        @ Ledger.pool_metrics (Some pool_snapshot) ~ops:(Array.length rtt)
        @ Ledger.rounding ()
        @ [ empty_task; Ledger.synthesize ~n:p.n ~reps:20 ]
        @ Ledger.emulation ~nb:p.nb inp ~reps:2
        @ [ Report.metric "serve.wire_ms_p50" "ms"
              (ms_q (arr (fun (rtt, f) -> rtt -. f.P.f_wall_s)) 0.5);
            codec_us shapes.(0);
            Report.metric "serve.exec_ms_p50" "ms" (ms_q exec 0.5);
            Report.metric "serve.exec_ms_p99" "ms" (ms_q exec 0.99);
            Report.metric "serve.pool_queue_ms_p50" "ms"
              (ms_q (arr (fun (_, f) -> f.P.f_span.Span.s_queue_s)) 0.5);
            Report.metric "serve.busy_ms_p50" "ms"
              (ms_q (arr (fun (_, f) -> f.P.f_span.Span.s_busy_s)) 0.5);
            Report.metric "serve.cache_hit_frac" "ratio"
              (frac cstats.Cache.hits (cstats.Cache.hits + cstats.Cache.misses));
            Report.metric "serve.cache_evictions" "count" (float_of_int cstats.Cache.evictions);
            build_artifact_ms shapes.(0) ~reps:20;
            Report.metric "serve.escalated_frac" "ratio"
              (frac escalated (List.fold_left (fun acc m -> acc + m.Ledger.ops) 0 maps));
            Report.metric "geostat.loglik_rel_err" "ratio" worst;
            Report.metric "obs.trace_overhead_frac" "ratio"
              (1. -. (float_of_int (Array.length rtt) /. elapsed
                      /. (float_of_int n_plain /. plain_elapsed)));
            Report.metric "obs.span_coverage_frac" "ratio"
              (if roots > 0. then covered /. roots else 0.) ]
      in
      ( n_plain + Array.length rtt,
        (live.warm :: tlive.warm :: plain) @ ts,
        metrics,
        sizes ts @ cache_header cstats
        @ [ ("requests_untraced", J.Num (float_of_int n_plain)) ] )
    end
  in
  let failures = List.rev !extra @ List.concat_map (fun t -> List.rev t.failures) tallies in
  { Report.attempted; failures; metrics; header; tracer }
