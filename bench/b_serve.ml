(* Service load generator: an in-process `geomix serve` instance plus N
   concurrent socket clients, measuring end-to-end request latency,
   throughput and the artifact-cache hit rate through the real
   length-prefixed protocol.

   CI mode (`--smoke`): 8 clients drive >= 200 requests over 4 problem
   shapes after a sequential warm-up pass, so the expected cache behaviour
   is deterministic (exactly one miss per shape, single-flight).  The
   acceptance checks are armed: every request must receive its reply
   (zero dropped), no error replies, a hit rate above 0.5, and Monte-Carlo
   progress frames must stream.  `--json` writes the BENCH_serve.json
   artifact; `--compare BASELINE` gates serve_p50_ms / serve_p99_ms /
   serve_cache_hit_frac against the committed baseline.

   Chaos mode (`--chaos`, seeded by `--chaos-seed`): the same mixed
   traffic hammers a server whose execution stack runs under a seeded
   fault plan — transient kernel faults, silent data corruption and
   forced pivot failures — with bounded retry, per-request integrity
   guards and precision-escalation recovery armed.  The gate asserts the
   ISSUE's chaos contract: the server never crashes, every request
   resolves to a typed status (clean / escalated / recovered / Saturated
   / deadline — nothing lands in Internal or a transport error), and
   every reply whose status claims clean numbers (Clean or
   Corrupt_recovered) is bitwise-identical to a fault-free reference
   evaluation of the same request.  Escalation invalidates cache
   entries, so the hit-rate check is not armed under chaos. *)

module Bench_json = Geomix_obs.Bench_json
module Metrics = Geomix_obs.Metrics
module Expo = Geomix_obs.Expo
module Span = Geomix_obs.Span
module Pool = Geomix_parallel.Pool
module Server = Geomix_serve.Server
module Cache = Geomix_serve.Cache
module P = Geomix_serve.Protocol
module Fault = Geomix_fault.Fault
module Retry = Geomix_fault.Retry
module Covariance = Geomix_geostat.Covariance

type cfg = {
  smoke : bool;
  chaos : bool;
  chaos_seed : int;
  trace : bool;  (* per-request spans at full sampling + scrape checks *)
  clients : int;
  requests : int; (* main-phase total, split across clients *)
  json_path : string option;
  compare_with : string option;
  scrape_out : string option;    (* save the Prometheus exposition here *)
  telemetry_out : string option; (* rolling JSONL snapshot path *)
  tolerance : float;
}

let default_cfg =
  {
    smoke = false;
    chaos = false;
    chaos_seed = 1;
    trace = false;
    clients = 8;
    requests = 200;
    json_path = None;
    compare_with = None;
    scrape_out = None;
    telemetry_out = None;
    tolerance = 3.0;
  }

(* The four problem shapes of the workload: one cache artifact each. *)
let shapes ~n ~nb =
  [|
    { P.n; nb; u_req = 1e-6; family = Covariance.Sqexp; sigma2 = 1.0;
      beta = 0.1; nu = 0.5; nugget = Covariance.default_nugget;
      locs_seed = 42; data_seed = 0 };
    { P.n; nb; u_req = 1e-4; family = Covariance.Sqexp; sigma2 = 1.0;
      beta = 0.2; nu = 0.5; nugget = Covariance.default_nugget;
      locs_seed = 42; data_seed = 0 };
    { P.n; nb; u_req = 1e-6; family = Covariance.Matern; sigma2 = 1.0;
      beta = 0.1; nu = 0.5; nugget = Covariance.default_nugget;
      locs_seed = 7; data_seed = 0 };
    { P.n; nb; u_req = 1e-8; family = Covariance.Powexp; sigma2 = 1.5;
      beta = 0.15; nu = 1.0; nugget = Covariance.default_nugget;
      locs_seed = 7; data_seed = 0 };
  |]

(* {2 Socket client} *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let rec connect_retry path attempts =
  match connect path with
  | conn -> conn
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when attempts > 1 ->
    Unix.sleepf 0.05;
    connect_retry path (attempts - 1)

(* One request over an open connection: write the frame, read frames until
   the terminal reply for our id.  Returns the reply, the number of
   progress frames seen, and the telemetry footer when the server attached
   one (traced requests only). *)
let roundtrip ic oc (req : P.request) =
  P.write_frame oc (P.request_to_json req);
  let progress = ref 0 in
  let footer = ref None in
  let rec await () =
    match P.read_frame ic with
    | Error msg -> Error msg
    | Ok json -> (
      match P.frame_of_json json with
      | Error msg -> Error msg
      | Ok (P.Progress { id; _ }) when id = req.P.id ->
        incr progress;
        await ()
      | Ok (P.Progress _) -> await ()
      | Ok (P.Reply { id; reply; footer = f }) ->
        if id = req.P.id then begin
          footer := f;
          Ok reply
        end
        else Error (Printf.sprintf "reply for %S while awaiting %S" id req.P.id))
  in
  let r = await () in
  (r, !progress, !footer)

(* How a request resolved, after saturation retries.  Everything here is
   a *typed* resolution except [Transport] and [Err_other] — those are
   the chaos gate's definition of an unaccounted failure. *)
type klass =
  | Ok_clean
  | Ok_escalated
  | Ok_recovered
  | Ok_indefinite
  | Err_saturated  (** still saturated after bounded retries *)
  | Err_deadline
  | Err_other      (** Internal / Bad_request — never expected *)
  | Transport

let klass_ok = function
  | Ok_clean | Ok_escalated | Ok_recovered | Ok_indefinite -> true
  | Err_saturated | Err_deadline | Err_other | Transport -> false

type outcome = {
  latency_s : float;
  klass : klass;
  cache_hit : bool;
  progress : int;
  sat_retries : int;  (** Saturated replies absorbed by client backoff *)
  bitwise_ok : bool;  (** clean-claiming reply matched the reference *)
  footer : P.footer option;  (** telemetry footer of the terminal reply *)
}

let cache_hit_of = function
  | P.Likelihood_r { cache_hit; _ }
  | P.Predict_r { cache_hit; _ }
  | P.Mc_r { cache_hit; _ } ->
    Some cache_hit
  | P.Pong | P.Health_r _ | P.Stats_r _ | P.Shutdown_r | P.Error_r _ -> None

let status_of = function
  | P.Likelihood_r { status; _ } | P.Mc_r { status; _ } -> Some status
  | P.Predict_r _ -> Some P.Clean (* prediction has no factorization status *)
  | P.Pong | P.Health_r _ | P.Stats_r _ | P.Shutdown_r | P.Error_r _ -> None

(* Client-side saturation backoff: a `Retry`-style policy whose delays
   come from [Retry.delay_for] with a per-request salt, so a herd of
   clients shed at the same instant decorrelates instead of re-colliding
   on the admission queue.  [retryable] is irrelevant (we match on the
   Saturated reply, not an exception); delays are real sleeps. *)
let saturation_policy =
  {
    Retry.max_attempts = 6;
    base_delay = 0.004;
    factor = 2.0;
    max_delay = 0.1;
    jitter = 0.5;
    sleep = Unix.sleepf;
    retryable = (fun _ -> false);
  }

(* Bitwise comparison of the numeric payload of two replies — statuses
   and cache flags are allowed to differ (the faulted run reports how it
   recovered; the reference is always Clean). *)
let f64_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let arr_eq a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (f64_eq x b.(i)) then ok := false) a;
  !ok

let numbers_match a b =
  match (a, b) with
  | P.Likelihood_r x, P.Likelihood_r y ->
    f64_eq x.loglik y.loglik
    && f64_eq x.log_det y.log_det
    && f64_eq x.quad_form y.quad_form
  | P.Mc_r x, P.Mc_r y ->
    arr_eq x.logliks y.logliks && f64_eq x.mean_loglik y.mean_loglik
  | P.Predict_r x, P.Predict_r y ->
    arr_eq x.mean y.mean && arr_eq x.variance y.variance
  | _ -> false

(* Issue one request: bounded decorrelated-jitter retry on Saturated,
   then classify the resolution.  [verify] re-evaluates clean-claiming
   replies against the fault-free reference (chaos mode only). *)
let issue ?(verify = fun _ _ -> true) ic oc req =
  let t0 = Unix.gettimeofday () in
  let rec go attempt retries =
    let r, progress, footer = roundtrip ic oc req in
    match r with
    | Ok (P.Error_r { code = P.Saturated; _ })
      when attempt < saturation_policy.Retry.max_attempts ->
      saturation_policy.Retry.sleep
        (Retry.delay_for
           ~salt:(Hashtbl.hash req.P.id)
           saturation_policy ~attempt);
      go (attempt + 1) (retries + 1)
    | r -> (r, progress, footer, retries)
  in
  let r, progress, footer, sat_retries = go 1 0 in
  let latency_s = Unix.gettimeofday () -. t0 in
  let mk klass cache_hit bitwise_ok =
    { latency_s; klass; cache_hit; progress; sat_retries; bitwise_ok; footer }
  in
  match r with
  | Error msg ->
    prerr_endline ("b_serve: transport error: " ^ msg);
    mk Transport false true
  | Ok (P.Error_r { code = P.Saturated; _ }) -> mk Err_saturated false true
  | Ok (P.Error_r { code = P.Deadline_exceeded; _ }) ->
    mk Err_deadline false true
  | Ok (P.Error_r { code; message }) ->
    Printf.eprintf "b_serve: %s error: %s\n%!" (P.error_code_name code) message;
    mk Err_other false true
  | Ok reply ->
    let hit = Option.value (cache_hit_of reply) ~default:false in
    let klass, check_bits =
      match status_of reply with
      | Some P.Clean | None -> (Ok_clean, true)
      | Some (P.Corrupt_recovered _) -> (Ok_recovered, true)
      | Some (P.Escalated _) -> (Ok_escalated, false)
      | Some P.Indefinite -> (Ok_indefinite, false)
    in
    let bitwise_ok = (not check_bits) || verify req reply in
    if not bitwise_ok then
      Printf.eprintf
        "b_serve: CORRUPT ESCAPE: %s reply %S diverged from fault-free \
         reference\n\
         %!"
        (match klass with Ok_recovered -> "recovered" | _ -> "clean")
        req.P.id;
    mk klass hit bitwise_ok

(* The request mix, deterministic per (client, slot): mostly likelihoods,
   every 5th a Monte-Carlo batch, every 7th a kriging prediction. *)
let request_for ~shapes ~client ~slot =
  let k = (client + slot) mod Array.length shapes in
  let spec = { (shapes.(k)) with P.data_seed = (client * 1000) + slot } in
  let id = Printf.sprintf "c%d-%d" client slot in
  let priority =
    match slot mod 3 with 0 -> P.High | 1 -> P.Normal | _ -> P.Low
  in
  let payload =
    if slot mod 5 = 4 then P.Mc_batch { spec; replicates = 4 }
    else if slot mod 7 = 6 then
      P.Predict { spec; n_new = 8; pred_seed = 100 + slot }
    else P.Likelihood spec
  in
  { P.id; priority; timeout_s = None; payload }

(* {2 Harness} *)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

let count f l = List.length (List.filter f l)

let run cfg =
  let n, nb = if cfg.smoke || cfg.chaos then (64, 16) else (256, 32) in
  let shapes = shapes ~n ~nb in
  let path = Printf.sprintf "/tmp/geomix-serve-bench-%d.sock" (Unix.getpid ()) in
  let obs = Geomix_obs.Metrics.create () in
  let pool = Pool.create ~obs () in
  (* The chaos plan injects inside the server's factorization stack only
     (sites exec/sdc/pivot through Mp_cholesky) — decisions are pure
     functions of the seed, so a failing run replays bit for bit. *)
  let faults =
    if cfg.chaos then
      Some
        (Fault.plan ~obs ~rate:0.2
           ~kinds:[ Fault.Transient; Fault.Sdc ]
           ~pivot_rate:0.05 ~seed:cfg.chaos_seed ())
    else None
  in
  let retry = if cfg.chaos then Some (Retry.immediate ~max_attempts:3 ()) else None in
  let server =
    Server.create ~obs ~max_inflight:4
      ~queue_capacity:(max 16 (2 * cfg.clients))
      ~cache_capacity:32 ?faults ?retry ~integrity:cfg.chaos
      ~trace_sample:(if cfg.trace then 1.0 else 0.)
      ~pool ()
  in
  (* Fault-free reference for the bitwise gate: its own pool and cache,
     no faults, no guards — `Server.handle` gives the ground truth the
     chaos server's clean-claiming replies must reproduce exactly. *)
  let ref_ctx =
    if cfg.chaos then begin
      let ref_pool = Pool.create () in
      let ref_server =
        Server.create ~max_inflight:(max 8 cfg.clients) ~queue_capacity:64
          ~cache_capacity:32 ~pool:ref_pool ()
      in
      Some (ref_pool, ref_server)
    end
    else None
  in
  let verify =
    match ref_ctx with
    | None -> fun _ _ -> true
    | Some (_, ref_server) ->
      fun req reply -> numbers_match reply (Server.handle ref_server req)
  in
  let stats_path = if cfg.trace then Some (path ^ ".stats") else None in
  let telemetry =
    Option.map (fun p -> Expo.snapshotter ~path:p ()) cfg.telemetry_out
  in
  let serve_outcome = ref Server.Served in
  let server_thread =
    Thread.create
      (fun () ->
        serve_outcome :=
          Server.serve_unix server ~path ?stats_path ?telemetry ())
      ()
  in
  (* Readiness barrier: connect (with retry while the listener binds) and
     ping. *)
  let fd0, ic0, oc0 = connect_retry path 100 in
  (match
     roundtrip ic0 oc0
       { P.id = "ready"; priority = P.Normal; timeout_s = None; payload = P.Ping }
   with
  | Ok P.Pong, _, _ -> ()
  | _ -> failwith "b_serve: server did not answer ping");
  (* Warm-up: one request per shape, sequential, so the cache is populated
     with exactly one miss per shape before the measured phase. *)
  let warm =
    Array.to_list shapes
    |> List.mapi (fun i spec ->
           issue ~verify ic0 oc0
             {
               P.id = Printf.sprintf "warm-%d" i;
               priority = P.Normal;
               timeout_s = None;
               payload = P.Likelihood { spec with P.data_seed = 999 };
             })
  in
  let per_client = (cfg.requests + cfg.clients - 1) / cfg.clients in
  let results = Array.make (cfg.clients * per_client) None in
  let t_start = Unix.gettimeofday () in
  let client_thread c =
    let fd, ic, oc = connect path in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        for slot = 0 to per_client - 1 do
          let req = request_for ~shapes ~client:c ~slot in
          results.((c * per_client) + slot) <- Some (issue ~verify ic oc req)
        done)
  in
  let threads = List.init cfg.clients (fun c -> Thread.create client_thread c) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t_start in
  (* Probe health over the wire, then shut the server down and join it —
     the join returning at all is the zero-crash assertion. *)
  let health =
    match
      roundtrip ic0 oc0
        {
          P.id = "health";
          priority = P.Normal;
          timeout_s = None;
          payload = P.Health;
        }
    with
    | Ok (P.Health_r h), _, _ -> Some h
    | _ -> None
  in
  (* Over-the-wire scrape through the framed protocol: one Stats request
     in each format.  The Prometheus body must lint clean and parse, and
     its counter samples must round-trip against the live registry. *)
  let stats_prom =
    match
      roundtrip ic0 oc0
        {
          P.id = "stats-prom";
          priority = P.Normal;
          timeout_s = None;
          payload = P.Stats P.Stats_prom;
        }
    with
    | Ok (P.Stats_r { format = P.Stats_prom; body }), _, _ -> Some body
    | _ -> None
  in
  let stats_json_ok =
    match
      roundtrip ic0 oc0
        {
          P.id = "stats-json";
          priority = P.Normal;
          timeout_s = None;
          payload = P.Stats P.Stats_json;
        }
    with
    | Ok (P.Stats_r { format = P.Stats_json; body }), _, _ -> (
      match Geomix_obs.Jsonlite.of_string body with
      | Ok j -> Result.is_ok (Metrics.of_json j)
      | Error _ -> false)
    | _ -> false
  in
  (* And through the dedicated scrape listener: connect, read the whole
     exposition, EOF.  This is the path a real Prometheus poll takes. *)
  let raw_scrape =
    match stats_path with
    | None -> None
    | Some sp -> (
      try
        let fd, sic, _ = connect sp in
        let buf = Buffer.create 4096 in
        (try
           while true do
             Buffer.add_channel buf sic 1
           done
         with End_of_file -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Some (Buffer.contents buf)
      with Unix.Unix_error _ | Sys_error _ -> None)
  in
  let shutdown_ok =
    match
      roundtrip ic0 oc0
        {
          P.id = "stop";
          priority = P.Normal;
          timeout_s = None;
          payload = P.Shutdown;
        }
    with
    | Ok P.Shutdown_r, _, _ -> true
    | _ ->
      prerr_endline "b_serve: shutdown handshake failed";
      false
  in
  (try Unix.close fd0 with Unix.Unix_error _ -> ());
  Thread.join server_thread;
  Pool.shutdown pool;
  (match ref_ctx with Some (ref_pool, _) -> Pool.shutdown ref_pool | None -> ());
  Option.iter Expo.close telemetry;
  (* The registry is quiescent from here on: every aggregate below reads
     one final snapshot. *)
  let final_snap = Metrics.snapshot obs in
  let counter_of name =
    match Metrics.find final_snap name with
    | Some (Metrics.Counter c) -> c
    | _ -> 0
  in
  (* {2 Aggregation} *)
  let main = Array.to_list results |> List.filter_map Fun.id in
  let sent = cfg.clients * per_client in
  let received = List.length main in
  let dropped = sent - received in
  let all = warm @ main in
  let errors = count (fun o -> not (klass_ok o.klass)) all in
  let hits = count (fun o -> klass_ok o.klass && o.cache_hit) all in
  let answered = count (fun o -> klass_ok o.klass) all in
  let hit_frac =
    if answered = 0 then 0. else float_of_int hits /. float_of_int answered
  in
  let escalated = count (fun o -> o.klass = Ok_escalated) all in
  let recovered = count (fun o -> o.klass = Ok_recovered) all in
  let indefinite = count (fun o -> o.klass = Ok_indefinite) all in
  let saturated = count (fun o -> o.klass = Err_saturated) all in
  let deadline = count (fun o -> o.klass = Err_deadline) all in
  let unaccounted =
    count (fun o -> o.klass = Err_other || o.klass = Transport) all
  in
  let bitwise_failures = count (fun o -> not o.bitwise_ok) all in
  let sat_retries = List.fold_left (fun acc o -> acc + o.sat_retries) 0 all in
  let shed = match health with Some h -> h.P.shed | None -> 0 in
  let recovered_frac =
    if answered = 0 then 0. else float_of_int recovered /. float_of_int answered
  in
  let shed_frac = float_of_int shed /. float_of_int (max 1 sent) in
  let injected = match faults with Some f -> Fault.injected f | None -> 0 in
  let pivots = match faults with Some f -> Fault.pivots f | None -> 0 in
  let progress_frames = List.fold_left (fun acc o -> acc + o.progress) 0 all in
  let lat = List.map (fun o -> o.latency_s) main |> Array.of_list in
  Array.sort compare lat;
  let p50_ms = 1000. *. quantile lat 0.50 in
  let p99_ms = 1000. *. quantile lat 0.99 in
  let throughput = float_of_int received /. elapsed in
  let cstats = Cache.stats (Server.cache server) in
  (* {2 Trace-mode accounting}

     Conservation: at full sampling every executed request carries a
     footer, and the footers' summed shipped-byte counts must equal the
     registry's aggregate RAW-edge accounting bitwise — same call site,
     same values, different ledgers. *)
  let footers = List.filter_map (fun o -> o.footer) all in
  let footer_bytes_stc =
    List.fold_left (fun acc (f : P.footer) -> acc + f.P.f_span.Span.s_bytes_stc)
      0 footers
  in
  let footer_bytes_fp64 =
    List.fold_left
      (fun acc (f : P.footer) -> acc + f.P.f_span.Span.s_bytes_fp64)
      0 footers
  in
  let shipped_bytes = counter_of "cholesky.shipped_bytes" in
  let shipped_fp64 = counter_of "cholesky.shipped_bytes_fp64" in
  let missing_footers =
    if not cfg.trace then 0
    else count (fun o -> klass_ok o.klass && o.footer = None) main
  in
  (* Tracing overhead: median in-process request latency of a traced
     server over an untraced one, same shape, on one pool.  Each server
     takes its one cache miss in a warm-up request; then 51 requests per
     side run in interleaved pairs, alternating which side goes first, so
     drift on a noisy host lands on both sides alike. *)
  let obs_overhead_frac =
    if not cfg.trace then None
    else begin
      let pairs = 51 in
      let p = Pool.create () in
      let server traced =
        Server.create ~obs:(Metrics.create ()) ~max_inflight:2
          ~trace_sample:(if traced then 1.0 else 0.)
          ~pool:p ()
      in
      let plain_s = server false and traced_s = server true in
      let latency s id seed =
        let req =
          {
            P.id;
            priority = P.Normal;
            timeout_s = None;
            payload = P.Likelihood { (shapes.(0)) with P.data_seed = seed };
          }
        in
        let t0 = Unix.gettimeofday () in
        (match Server.handle s req with
        | P.Likelihood_r _ -> ()
        | _ -> failwith "b_serve: overhead probe did not factorize");
        Unix.gettimeofday () -. t0
      in
      ignore (latency plain_s "ovhu-warm" 499);
      ignore (latency traced_s "ovht-warm" 499);
      let plain = Array.make pairs 0. and traced = Array.make pairs 0. in
      for i = 0 to pairs - 1 do
        let run_plain () =
          plain.(i) <- latency plain_s (Printf.sprintf "ovhu-%d" i) (500 + i)
        and run_traced () =
          traced.(i) <- latency traced_s (Printf.sprintf "ovht-%d" i) (500 + i)
        in
        if i mod 2 = 0 then (run_plain (); run_traced ())
        else (run_traced (); run_plain ())
      done;
      Pool.shutdown p;
      let median a =
        Array.sort compare a;
        a.(pairs / 2)
      in
      let plain = median plain and traced = median traced in
      Some (if plain <= 0. then 0. else Float.max 0. ((traced -. plain) /. plain))
    end
  in
  (* Scrape validation: the exposition must lint clean, parse, and its
     counter samples must round-trip against the (now quiescent)
     registry — [serve.requests] only moves on admission-gated payloads,
     none of which ran after the scrape. *)
  let scrape_ok body =
    Expo.lint body = []
    &&
    match Expo.parse body with
    | Error _ -> false
    | Ok samples -> (
      match Expo.find samples "geomix_serve_requests" with
      | Some s -> s.Expo.value = float_of_int (counter_of "serve.requests")
      | None -> false)
  in
  (match (cfg.scrape_out, raw_scrape, stats_prom) with
  | Some out, Some body, _ | Some out, None, Some body ->
    let oc = open_out out in
    output_string oc body;
    close_out oc;
    Printf.printf "wrote %s\n" out
  | _ -> ());
  Printf.printf
    "serve bench%s: %d clients, %d+%d requests (warm+main) over %s\n"
    (if cfg.chaos then Printf.sprintf " [chaos seed %d]" cfg.chaos_seed else "")
    cfg.clients (List.length warm) sent path;
  Printf.printf
    "  received %d  dropped %d  errors %d  progress frames %d\n"
    received dropped errors progress_frames;
  if cfg.chaos then begin
    Printf.printf
      "  chaos: %d injected (%d pivots)  statuses: clean %d  escalated %d  \
       recovered %d  indefinite %d\n"
      injected pivots
      (count (fun o -> o.klass = Ok_clean) all)
      escalated recovered indefinite;
    Printf.printf
      "  shedding: %d shed by brown-out, %d saturated replies retried away, \
       %d final saturated, %d deadline\n"
      shed sat_retries saturated deadline
  end;
  Printf.printf "  p50 %.2f ms  p99 %.2f ms  throughput %.1f req/s\n" p50_ms
    p99_ms throughput;
  Printf.printf "  cache: %d hits / %d misses / %d evictions (hit rate %.3f)\n"
    cstats.Cache.hits cstats.Cache.misses cstats.Cache.evictions hit_frac;
  if cfg.trace then begin
    Printf.printf
      "  trace: %d footers  bytes STC %d / FP64-equivalent %d (registry %d / \
       %d)\n"
      (List.length footers) footer_bytes_stc footer_bytes_fp64 shipped_bytes
      shipped_fp64;
    (match obs_overhead_frac with
    | Some f -> Printf.printf "  trace overhead: %.4f of untraced latency\n" f
    | None -> ())
  end;
  (* End-of-run serve metrics dump: every serve.* counter/gauge plus the
     latency histogram, straight from the registry — what an operator
     reconciles the scrape against. *)
  print_endline "  serve metrics:";
  List.iter
    (fun (name, v) ->
      if String.length name >= 6 && String.sub name 0 6 = "serve." then
        match v with
        | Metrics.Counter c -> Printf.printf "    %-32s %d\n" name c
        | Metrics.Gauge g -> Printf.printf "    %-32s %g\n" name g
        | Metrics.Histogram h ->
          Printf.printf "    %-32s count=%d p50=%.4g p99=%.4g\n" name
            h.Metrics.count
            (Metrics.quantile h 0.50)
            (Metrics.quantile h 0.99))
    final_snap;
  let metrics =
    [
      Bench_json.metric ~units:"ms" "serve_p50_ms" p50_ms;
      Bench_json.metric ~units:"ms" "serve_p99_ms" p99_ms;
      Bench_json.metric ~units:"req/s" ~direction:Bench_json.Higher_is_better
        "serve_throughput_rps" throughput;
      Bench_json.metric ~direction:Bench_json.Higher_is_better
        "serve_cache_hit_frac" hit_frac;
      Bench_json.metric "serve_dropped" (float_of_int dropped);
      Bench_json.metric "serve_errors" (float_of_int errors);
      Bench_json.metric ~direction:Bench_json.Higher_is_better
        "serve_requests" (float_of_int (received + List.length warm));
      Bench_json.metric "serve_recovered_frac" recovered_frac;
      Bench_json.metric "serve_shed_frac" shed_frac;
    ]
    @
    match obs_overhead_frac with
    | Some f -> [ Bench_json.metric "obs_overhead_frac" f ]
    | None -> []
  in
  let bench = Bench_json.make ~suite:"serve" metrics in
  (match cfg.json_path with
  | None -> ()
  | Some path ->
    Bench_json.write ~path bench;
    Printf.printf "wrote %s\n" path);
  (* Acceptance checks (always on; `--smoke` additionally pins the minimum
     request volume the CI job advertises).  Chaos swaps the error checks
     for the chaos contract: zero crashes, zero corrupt escapes, every
     failure typed. *)
  let failures = ref [] in
  let check cond msg = if not cond then failures := msg :: !failures in
  check (dropped = 0) "dropped responses";
  check shutdown_ok "shutdown handshake failed (server crashed?)";
  check (!serve_outcome = Server.Served) "server run did not end cleanly";
  if cfg.chaos then begin
    check (injected > 0) "chaos plan injected nothing (gate not exercised)";
    check (unaccounted = 0)
      "unaccounted failures (Internal / Bad_request / transport)";
    check (bitwise_failures = 0)
      "corrupt escape: clean-claiming reply diverged from fault-free reference";
    check (indefinite = 0) "indefinite status on an SPD workload"
  end
  else begin
    check (errors = 0) "error replies";
    check (hit_frac > 0.5) "cache hit rate at or below 0.5"
  end;
  check (progress_frames > 0) "no Monte-Carlo progress frames streamed";
  if cfg.smoke then check (received >= 200) "fewer than 200 main-phase requests";
  if cfg.trace then begin
    check (missing_footers = 0)
      "traced request resolved without a telemetry footer";
    if dropped = 0 && unaccounted = 0 then begin
      check
        (footer_bytes_stc = shipped_bytes)
        (Printf.sprintf
           "span/counter conservation broken: footers %d bytes, registry %d"
           footer_bytes_stc shipped_bytes);
      check
        (footer_bytes_fp64 = shipped_fp64)
        "span/counter conservation broken on the FP64-equivalent ledger"
    end;
    check (footer_bytes_stc > 0) "traced run moved no attributed bytes";
    check stats_json_ok "Stats(json) body did not decode as a registry snapshot";
    (match stats_prom with
    | None -> check false "no Stats(prom) reply"
    | Some body -> check (scrape_ok body) "Stats(prom) body failed lint/round-trip");
    (match raw_scrape with
    | None -> check false "scrape listener produced no exposition"
    | Some body ->
      check (scrape_ok body) "scrape-listener exposition failed lint/round-trip");
    (match obs_overhead_frac with
    | Some f ->
      check (f <= 0.05)
        (Printf.sprintf "tracing overhead %.4f exceeds 0.05 budget" f)
    | None -> ());
    match cfg.telemetry_out with
    | None -> ()
    | Some p ->
      check
        (Sys.file_exists p
        &&
        let ic = open_in p in
        let len = in_channel_length ic in
        close_in ic;
        len > 0)
        "telemetry snapshot file missing or empty"
  end;
  List.iter (fun m -> Printf.eprintf "serve bench FAILED: %s\n" m) !failures;
  let gate_code =
    match cfg.compare_with with
    | None -> 0
    | Some base_path -> (
      match Bench_json.read ~path:base_path with
      | Error msg ->
        Printf.eprintf "cannot read baseline %s: %s\n" base_path msg;
        1
      | Ok baseline ->
        (* This gate owns the serve_* slice of the shared baseline: a
           serve metric that stops being emitted fails loudly instead of
           silently shrinking the gate. *)
        let verdicts =
          Bench_json.compare
            ~expect:(String.starts_with ~prefix:"serve_")
            ~tolerance:cfg.tolerance ~baseline ~current:bench ()
        in
        Printf.printf "\nregression gate vs %s (tolerance %.0f%%):\n%s"
          base_path (100. *. cfg.tolerance)
          (Bench_json.report_verdicts verdicts);
        if Bench_json.any_regressed verdicts then begin
          (match Bench_json.missing verdicts with
          | [] -> ()
          | names ->
            Printf.eprintf "serve gate: baseline metrics missing: %s\n"
              (String.concat ", " names));
          Printf.eprintf "serve gate FAILED: metrics regressed beyond %.0f%%\n"
            (100. *. cfg.tolerance);
          1
        end
        else begin
          Printf.printf "serve gate passed.\n";
          0
        end)
  in
  if !failures <> [] then 1 else gate_code

let usage () =
  print_endline
    "usage: b_serve.exe [--smoke] [--chaos] [--chaos-seed N] [--clients N]\n\
    \       [--requests N] [--json PATH] [--compare BASELINE] [--tolerance F]\n\
    \       [--trace] [--scrape-out PATH] [--telemetry-out PATH]"

let () =
  let rec parse cfg = function
    | [] -> cfg
    | "--smoke" :: rest -> parse { cfg with smoke = true } rest
    | "--chaos" :: rest -> parse { cfg with chaos = true } rest
    | "--chaos-seed" :: v :: rest ->
      parse { cfg with chaos_seed = int_of_string v } rest
    | "--clients" :: v :: rest ->
      parse { cfg with clients = int_of_string v } rest
    | "--requests" :: v :: rest ->
      parse { cfg with requests = int_of_string v } rest
    | "--json" :: v :: rest -> parse { cfg with json_path = Some v } rest
    | "--compare" :: v :: rest -> parse { cfg with compare_with = Some v } rest
    | "--tolerance" :: v :: rest ->
      parse { cfg with tolerance = float_of_string v } rest
    | "--trace" :: rest -> parse { cfg with trace = true } rest
    | "--scrape-out" :: v :: rest -> parse { cfg with scrape_out = Some v } rest
    | "--telemetry-out" :: v :: rest ->
      parse { cfg with telemetry_out = Some v } rest
    | ("--help" | "-h") :: _ ->
      usage ();
      exit 0
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n" arg;
      usage ();
      exit 2
  in
  let cfg = parse default_cfg (List.tl (Array.to_list Sys.argv)) in
  exit (run cfg)
