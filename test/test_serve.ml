(* The model service: protocol codecs and framing, admission control,
   deadlines on the virtual clock, the single-flight shape cache (including
   an interleaving replay through the verify explorer), the cache-hit
   bitwise-identity property, Monte-Carlo progress streaming, and a small
   end-to-end pass over the Unix-domain-socket front end. *)

module J = Geomix_obs.Jsonlite
module P = Geomix_serve.Protocol
module Cache = Geomix_serve.Cache
module Server = Geomix_serve.Server
module Breaker = Geomix_serve.Breaker
module Pool = Geomix_parallel.Pool
module Explore = Geomix_verify.Explore
module Fault = Geomix_fault.Fault
module Retry = Geomix_fault.Retry
module Covariance = Geomix_geostat.Covariance

(* [compare = 0] instead of [(=)]: Indefinite replies carry nan fields, and
   nan <> nan structurally while [compare nan nan = 0]. *)
let same a b = Stdlib.compare a b = 0

let spec ?(n = 48) ?(nb = 16) ?(u_req = 1e-6) ?(family = Covariance.Sqexp)
    ?(beta = 0.1) ?(locs_seed = 42) ?(data_seed = 1) () =
  {
    P.n;
    nb;
    u_req;
    family;
    sigma2 = 1.0;
    beta;
    nu = 0.5;
    nugget = Covariance.default_nugget;
    locs_seed;
    data_seed;
  }

let request ?(id = "r1") ?(priority = P.Normal) ?timeout_s payload =
  { P.id; priority; timeout_s; payload }

let with_server ?now ?(max_inflight = 4) ?(queue_capacity = 16)
    ?(cache_capacity = 32) ?faults ?retry ?integrity ?drain_deadline_s
    ?breaker_config f =
  let pool = Pool.create ~num_workers:0 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      f
        (Server.create ?now ~max_inflight ~queue_capacity ~cache_capacity
           ?faults ?retry ?integrity ?drain_deadline_s ?breaker_config ~pool ()))

(* {2 Protocol codecs} *)

let roundtrip_request req =
  match P.request_of_json (P.request_to_json req) with
  | Ok req' -> Alcotest.(check bool) "request round-trip" true (same req req')
  | Error m -> Alcotest.failf "decode failed: %s" m

let test_request_roundtrip () =
  List.iter roundtrip_request
    [
      request P.Ping;
      request ~id:"x" ~priority:P.High ~timeout_s:0.25 (P.Likelihood (spec ()));
      request ~priority:P.Low
        (P.Likelihood (spec ~family:Covariance.Matern ~beta:0.3 ()));
      request (P.Predict { spec = spec (); n_new = 7; pred_seed = 9 });
      request (P.Mc_batch { spec = spec ~family:Covariance.Powexp (); replicates = 12 });
      request P.Health;
      request P.Shutdown;
    ]

let roundtrip_frame frame =
  match P.frame_of_json (P.frame_to_json frame) with
  | Ok frame' -> Alcotest.(check bool) "frame round-trip" true (same frame frame')
  | Error m -> Alcotest.failf "decode failed: %s" m

let test_frame_roundtrip () =
  let reply r = P.Reply { id = "id-1"; reply = r; footer = None } in
  List.iter roundtrip_frame
    [
      P.Progress { id = "mc"; completed = 3; total = 8 };
      reply P.Pong;
      reply
        (P.Likelihood_r
           {
             loglik = -61.25;
             log_det = 3.5;
             quad_form = 12.0;
             status = P.Clean;
             cache_hit = true;
           });
      reply
        (P.Likelihood_r
           {
             loglik = -1.5;
             log_det = 0.25;
             quad_form = 2.0;
             status = P.Escalated 2;
             cache_hit = false;
           });
      (* Indefinite: -inf / nan cross JSON as null; the status field is
         authoritative and the decoder reconstructs the canonical values. *)
      reply
        (P.Likelihood_r
           {
             loglik = neg_infinity;
             log_det = nan;
             quad_form = nan;
             status = P.Indefinite;
             cache_hit = false;
           });
      reply
        (P.Likelihood_r
           {
             loglik = -2.0;
             log_det = 1.0;
             quad_form = 3.0;
             status = P.Corrupt_recovered 3;
             cache_hit = false;
           });
      reply
        (P.Health_r
           {
             inflight = 1;
             queued = 2;
             served = 30;
             draining = false;
             brownout = true;
             cache_hits = 4;
             cache_misses = 5;
             cache_evictions = 6;
             recovered = 7;
             escalated = 8;
             shed = 9;
           });
      reply
        (P.Predict_r
           { mean = [| 0.5; -1.25 |]; variance = [| 0.1; 0.2 |]; cache_hit = true });
      reply
        (P.Mc_r
           {
             logliks = [| -1.0; neg_infinity; -3.0 |];
             mean_loglik = neg_infinity;
             status = P.Indefinite;
             cache_hit = true;
           });
      reply P.Shutdown_r;
      reply (P.Error_r { code = P.Saturated; message = "busy" });
      reply (P.Error_r { code = P.Deadline_exceeded; message = "late" });
      reply (P.Error_r { code = P.Bad_request; message = "nope" });
      reply (P.Error_r { code = P.Internal; message = "boom" });
    ]

let test_reject_malformed () =
  let bad json =
    match P.request_of_json json with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "malformed request decoded"
  in
  bad (J.Str "nope");
  bad (J.Obj [ ("id", J.Str "x") ]);
  bad (J.Obj [ ("id", J.Str "x"); ("op", J.Str "unknown-op") ])

let qcheck_spec_gen =
  QCheck.Gen.(
    let* n = int_range 1 96 in
    let* nb = int_range 1 n in
    let* u_req = oneofl [ 1e-8; 1e-6; 1e-4; 1e-2 ] in
    let* family =
      oneofl
        [ Covariance.Sqexp; Covariance.Matern; Covariance.Powexp; Covariance.Spherical ]
    in
    let* sigma2 = float_range 0.1 4.0 in
    let* beta = float_range 0.05 0.5 in
    let* nu = float_range 0.5 1.5 in
    let* locs_seed = int_range 0 1000 in
    let* data_seed = int_range 0 1000 in
    return
      {
        P.n;
        nb;
        u_req;
        family;
        sigma2;
        beta;
        nu;
        nugget = Covariance.default_nugget;
        locs_seed;
        data_seed;
      })

let qcheck_request_gen =
  QCheck.Gen.(
    let* s = qcheck_spec_gen in
    let* priority = oneofl [ P.High; P.Normal; P.Low ] in
    let* timeout_s = oneofl [ None; Some 0.5; Some 30.0 ] in
    let* payload =
      oneof
        [
          return P.Ping;
          return (P.Likelihood s);
          (let* n_new = int_range 1 16 in
           let* pred_seed = int_range 0 100 in
           return (P.Predict { spec = s; n_new; pred_seed }));
          (let* replicates = int_range 1 32 in
           return (P.Mc_batch { spec = s; replicates }));
        ]
    in
    let* id = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
    return { P.id; priority; timeout_s; payload })

let prop_request_roundtrip =
  QCheck.Test.make ~count:200 ~name:"request codec round-trips"
    (QCheck.make qcheck_request_gen) (fun req ->
      match P.request_of_json (P.request_to_json req) with
      | Ok req' -> same req req'
      | Error _ -> false)

(* {2 Framing} *)

let with_pipe f =
  let r, w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r in
  let oc = Unix.out_channel_of_descr w in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      close_in_noerr ic)
    (fun () -> f ic oc)

let test_framing_roundtrip () =
  with_pipe (fun ic oc ->
      let json = P.request_to_json (request ~timeout_s:1.5 (P.Likelihood (spec ()))) in
      P.write_frame oc json;
      P.write_frame oc (J.Obj [ ("k", J.Num 7.) ]);
      (match P.read_frame ic with
      | Ok j -> Alcotest.(check bool) "first frame" true (same json j)
      | Error m -> Alcotest.failf "read failed: %s" m);
      match P.read_frame ic with
      | Ok j -> Alcotest.(check bool) "second frame" true (same (J.Obj [ ("k", J.Num 7.) ]) j)
      | Error m -> Alcotest.failf "read failed: %s" m)

let test_framing_eof_and_oversize () =
  with_pipe (fun ic oc ->
      close_out oc;
      match P.read_frame ic with
      | Error "eof" -> ()
      | Error m -> Alcotest.failf "expected eof, got %s" m
      | Ok _ -> Alcotest.fail "read from closed pipe");
  with_pipe (fun ic oc ->
      (* A connection cut after 1–3 header bytes is a framing error, not a
         clean end-of-stream. *)
      output_string oc "\x00\x00";
      close_out oc;
      match P.read_frame ic with
      | Error "truncated frame" -> ()
      | Error m -> Alcotest.failf "expected truncated frame, got %s" m
      | Ok _ -> Alcotest.fail "truncated header accepted");
  with_pipe (fun ic oc ->
      (* A header advertising more than [max_frame_bytes] must be refused
         without attempting the allocation. *)
      output_string oc "\xff\xff\xff\xff";
      flush oc;
      match P.read_frame ic with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "oversized frame accepted");
  let bytes = P.frame_to_string (J.Str "x") in
  Alcotest.(check int) "frame layout = 4-byte header + payload"
    (4 + String.length {|"x"|})
    (String.length bytes)

(* {2 Admission control} *)

let test_admission_saturation () =
  with_server ~max_inflight:1 ~queue_capacity:0 (fun srv ->
      Alcotest.(check bool) "slot granted" true (Server.admit srv ~rank:1 = `Admitted);
      Alcotest.(check int) "inflight" 1 (Server.inflight srv);
      (match Server.handle srv (request (P.Likelihood (spec ()))) with
      | P.Error_r { code = P.Saturated; _ } -> ()
      | _ -> Alcotest.fail "expected Saturated while slot and queue are full");
      Server.release srv;
      Alcotest.(check int) "released" 0 (Server.inflight srv);
      match Server.handle srv (request (P.Likelihood (spec ()))) with
      | P.Likelihood_r { status = P.Clean; _ } -> ()
      | _ -> Alcotest.fail "expected a clean likelihood after release")

let test_admission_priority_order () =
  with_server ~max_inflight:1 ~queue_capacity:4 (fun srv ->
      Alcotest.(check bool) "occupy" true (Server.admit srv ~rank:0 = `Admitted);
      let order = ref [] in
      let omutex = Mutex.create () in
      let waiter tag rank =
        Thread.create
          (fun () ->
            match Server.admit srv ~rank with
            | `Admitted ->
              Mutex.lock omutex;
              order := tag :: !order;
              Mutex.unlock omutex;
              Server.release srv
            | `Saturated -> ())
          ()
      in
      let await_queued n =
        let deadline = Unix.gettimeofday () +. 10.0 in
        while Server.queued srv < n && Unix.gettimeofday () < deadline do
          Thread.yield ()
        done;
        Alcotest.(check int) "queued" n (Server.queued srv)
      in
      (* Low enqueues first, then high: strict priority must overtake FIFO. *)
      let t_low = waiter `Low 2 in
      await_queued 1;
      let t_high = waiter `High 0 in
      await_queued 2;
      Server.release srv;
      Thread.join t_low;
      Thread.join t_high;
      Alcotest.(check bool) "high granted before low" true
        (List.rev !order = [ `High; `Low ]))

(* {2 Deadlines on the virtual clock} *)

let test_deadline_at_admission () =
  let _sleep, elapsed = Retry.virtual_clock () in
  with_server ~now:elapsed (fun srv ->
      match Server.handle srv (request ~timeout_s:(-1.0) (P.Likelihood (spec ()))) with
      | P.Error_r { code = P.Deadline_exceeded; _ } -> ()
      | _ -> Alcotest.fail "expected Deadline_exceeded at admission")

let test_deadline_mid_batch () =
  let sleep, elapsed = Retry.virtual_clock () in
  with_server ~now:elapsed (fun srv ->
      let progressed = ref 0 in
      (* The first replicate completes at t=0 and its progress callback
         advances the clock past the deadline; the per-replicate check must
         stop the rest of the batch instead of finishing late. *)
      let on_progress ~completed:_ ~total:_ =
        incr progressed;
        sleep 10.0
      in
      match
        Server.handle srv ~on_progress
          (request ~timeout_s:5.0 (P.Mc_batch { spec = spec (); replicates = 4 }))
      with
      | P.Error_r { code = P.Deadline_exceeded; _ } ->
        Alcotest.(check int) "one replicate before expiry" 1 !progressed
      | _ -> Alcotest.fail "expected Deadline_exceeded mid-batch")

(* {2 Shape cache} *)

let key ?beta ?locs_seed () = Cache.key_of_spec (spec ?beta ?locs_seed ())

let small_key i = Cache.key_of_spec (spec ~n:32 ~nb:16 ~locs_seed:i ())

let test_cache_lru_eviction () =
  let cache = Cache.create ~capacity:2 () in
  let build = Server.build_artifact in
  let k1 = small_key 1 and k2 = small_key 2 and k3 = small_key 3 in
  ignore (Cache.find_or_build cache k1 ~build);
  ignore (Cache.find_or_build cache k2 ~build);
  ignore (Cache.find_or_build cache k3 ~build);
  let s = Cache.stats cache in
  Alcotest.(check int) "misses" 3 s.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "resident" 2 (Cache.length cache);
  Alcotest.(check bool) "oldest evicted" true (Cache.find cache k1 = None);
  Alcotest.(check bool) "newest resident" true (Cache.find cache k3 <> None);
  (* A hit refreshes recency: touching k2 makes k3 the next victim. *)
  ignore (Cache.find_or_build cache k2 ~build);
  ignore (Cache.find_or_build cache k1 ~build);
  Alcotest.(check bool) "recency refreshed" true
    (Cache.find cache k2 <> None && Cache.find cache k3 = None)

let test_cache_single_flight () =
  let cache = Cache.create () in
  let k = small_key 7 in
  let barrier = Atomic.make 0 in
  let results = Array.make 4 None in
  let threads =
    Array.init 4 (fun i ->
        Thread.create
          (fun () ->
            Atomic.incr barrier;
            while Atomic.get barrier < 4 do
              Thread.yield ()
            done;
            let art, _hit = Cache.find_or_build cache k ~build:Server.build_artifact in
            results.(i) <- Some art)
          ())
  in
  Array.iter Thread.join threads;
  let s = Cache.stats cache in
  Alcotest.(check int) "exactly one build" 1 s.Cache.misses;
  Alcotest.(check int) "everyone else hits" 3 s.Cache.hits;
  let first = Option.get results.(0) in
  Array.iter
    (fun r -> Alcotest.(check bool) "one publication" true (Option.get r == first))
    results

(* Replay cache lookups under explored interleavings: the explorer
   serializes every linearization of an all-independent task graph, so every
   ordering of racing lookups is exercised.  Under each one the cache must
   build each distinct key exactly once and hand every task the same
   physically-equal artifact — no torn or duplicate publication. *)
let test_cache_interleaving_replay () =
  let num_tasks = 4 in
  let g =
    Explore.graph ~num_tasks ~in_degree:(Array.make num_tasks 0)
      ~successors:(fun _ -> [])
  in
  let check_schedule order =
    let cache = Cache.create () in
    let results = Array.make num_tasks None in
    Explore.run_schedule g ~order ~execute:(fun i ->
        let art, _ =
          Cache.find_or_build cache (small_key (i mod 2)) ~build:Server.build_artifact
        in
        results.(i) <- Some art);
    let s = Cache.stats cache in
    assert (s.Cache.misses = 2 && s.Cache.hits = num_tasks - 2);
    for i = 0 to num_tasks - 1 do
      for j = 0 to num_tasks - 1 do
        if i mod 2 = j mod 2 then
          assert (Option.get results.(i) == Option.get results.(j))
      done
    done
  in
  let { Explore.explored; complete } = Explore.explore_systematic g ~f:check_schedule in
  Alcotest.(check bool) "all 4! orders" true (complete && explored = 24);
  (* And a seeded pass over a wider race. *)
  let g6 =
    Explore.graph ~num_tasks:6 ~in_degree:(Array.make 6 0) ~successors:(fun _ -> [])
  in
  Explore.for_each_seed g6 (fun ~seed:_ order ->
      let cache = Cache.create () in
      Explore.run_schedule g6 ~order ~execute:(fun i ->
          ignore (Cache.find_or_build cache (small_key (i mod 3)) ~build:Server.build_artifact));
      assert ((Cache.stats cache).Cache.misses = 3))

(* {2 Bitwise identity of warm-cache evaluations} *)

let bits = Int64.bits_of_float

let likelihood_fields = function
  | P.Likelihood_r { loglik; log_det; quad_form; cache_hit; _ } ->
    (loglik, log_det, quad_form, cache_hit)
  | r -> Alcotest.failf "expected Likelihood_r, got %s" (match r with
      | P.Error_r { message; _ } -> message
      | _ -> "another reply")

let test_cache_hit_bit_identity () =
  with_server (fun srv ->
      let s = spec ~n:48 ~nb:16 () in
      let l1, d1, q1, h1 = likelihood_fields (Server.handle srv (request (P.Likelihood s))) in
      let l2, d2, q2, h2 = likelihood_fields (Server.handle srv (request (P.Likelihood s))) in
      Alcotest.(check bool) "first is cold" false h1;
      Alcotest.(check bool) "second hits" true h2;
      Alcotest.(check bool) "loglik bitwise identical" true (bits l1 = bits l2);
      Alcotest.(check bool) "log_det bitwise identical" true (bits d1 = bits d2);
      Alcotest.(check bool) "quad_form bitwise identical" true (bits q1 = bits q2);
      (* And identical to a cold run on a fresh server. *)
      with_server (fun fresh ->
          let l3, _, _, h3 =
            likelihood_fields (Server.handle fresh (request (P.Likelihood s)))
          in
          Alcotest.(check bool) "fresh server is cold" false h3;
          Alcotest.(check bool) "cold = warm bitwise" true (bits l1 = bits l3)))

let prop_cache_hit_bit_identity =
  QCheck.Test.make ~count:8 ~name:"cache-hit factorization is bitwise identical"
    (QCheck.make
       QCheck.Gen.(
         let* u_req = oneofl [ 1e-8; 1e-6; 1e-4 ] in
         let* family = oneofl [ Covariance.Sqexp; Covariance.Matern ] in
         let* beta = oneofl [ 0.05; 0.1; 0.2 ] in
         let* locs_seed = int_range 0 50 in
         let* data_seed = int_range 0 50 in
         return (spec ~n:32 ~nb:16 ~u_req ~family ~beta ~locs_seed ~data_seed ())))
    (fun s ->
      with_server (fun srv ->
          let r1 = Server.handle srv (request (P.Likelihood s)) in
          let r2 = Server.handle srv (request (P.Likelihood s)) in
          let l1, d1, q1, h1 = likelihood_fields r1 in
          let l2, d2, q2, h2 = likelihood_fields r2 in
          (* An escalated (or indefinite) first run invalidates the cached
             artifact by design, so the second run is a rebuild — still
             bitwise identical, but not a hit. *)
          let keeps_artifact =
            match r1 with
            | P.Likelihood_r { status = P.Clean | P.Corrupt_recovered _; _ } ->
              true
            | _ -> false
          in
          (not h1) && h2 = keeps_artifact && bits l1 = bits l2
          && bits d1 = bits d2 && bits q1 = bits q2))

(* {2 Monte-Carlo batching} *)

let test_mc_progress_and_batch () =
  with_server (fun srv ->
      let events = ref 0 in
      let peak = ref 0 in
      let on_progress ~completed ~total =
        incr events;
        if completed > !peak then peak := completed;
        Alcotest.(check int) "total" 5 total
      in
      match
        Server.handle srv ~on_progress
          (request (P.Mc_batch { spec = spec ~n:32 (); replicates = 5 }))
      with
      | P.Mc_r { logliks; mean_loglik; status = P.Clean; _ } ->
        Alcotest.(check int) "one loglik per replicate" 5 (Array.length logliks);
        Alcotest.(check int) "one progress event per replicate" 5 !events;
        Alcotest.(check int) "progress reaches the batch size" 5 !peak;
        Array.iter
          (fun l -> Alcotest.(check bool) "finite" true (Float.is_finite l))
          logliks;
        let sum = Array.fold_left ( +. ) 0. logliks in
        Alcotest.(check (float 1e-12)) "mean" (sum /. 5.) mean_loglik
      | _ -> Alcotest.fail "expected Mc_r")

let test_validation () =
  with_server (fun srv ->
      let expect_bad payload =
        match Server.handle srv (request payload) with
        | P.Error_r { code = P.Bad_request; _ } -> ()
        | _ -> Alcotest.fail "expected Bad_request"
      in
      expect_bad (P.Likelihood { (spec ()) with P.n = 0 });
      expect_bad (P.Likelihood { (spec ()) with P.nb = 100; n = 10 });
      expect_bad (P.Likelihood { (spec ()) with P.u_req = 0.0 });
      expect_bad (P.Likelihood { (spec ()) with P.sigma2 = nan });
      (* A smoothness outside the family's domain is a client error, not
         an assertion failure inside the artifact build. *)
      expect_bad (P.Likelihood { (spec ~family:Covariance.Matern ()) with P.nu = 0. });
      expect_bad (P.Likelihood { (spec ~family:Covariance.Matern ()) with P.nu = -1. });
      expect_bad (P.Likelihood { (spec ~family:Covariance.Powexp ()) with P.nu = 3. });
      expect_bad (P.Predict { spec = spec (); n_new = 0; pred_seed = 1 });
      expect_bad (P.Mc_batch { spec = spec (); replicates = 0 }))

(* {2 Socket front end} *)

let test_socket_end_to_end () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "geomix-test-serve-%d.sock" (Unix.getpid ()))
  in
  with_server (fun srv ->
      let server_thread =
        Thread.create (fun () -> Server.serve_unix srv ~path ()) ()
      in
      let rec connect tries =
        match
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          fd
        with
        | fd -> fd
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
          when tries > 0 ->
          Thread.delay 0.02;
          connect (tries - 1)
      in
      let fd = connect 250 in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let roundtrip req =
        P.write_frame oc (P.request_to_json req);
        let rec await progress =
          match P.read_frame ic with
          | Error m -> Alcotest.failf "read_frame: %s" m
          | Ok j -> (
            match P.frame_of_json j with
            | Ok (P.Reply { id; reply; _ }) ->
              Alcotest.(check string) "id echoed" req.P.id id;
              (reply, progress)
            | Ok (P.Progress _) -> await (progress + 1)
            | Error m -> Alcotest.failf "frame_of_json: %s" m)
        in
        await 0
      in
      (match roundtrip (request ~id:"ping" P.Ping) with
      | P.Pong, _ -> ()
      | _ -> Alcotest.fail "expected Pong");
      (match roundtrip (request ~id:"lik" (P.Likelihood (spec ~n:32 ()))) with
      | P.Likelihood_r { status = P.Clean; _ }, _ -> ()
      | _ -> Alcotest.fail "expected Likelihood_r");
      (match
         roundtrip (request ~id:"mc" (P.Mc_batch { spec = spec ~n:32 (); replicates = 3 }))
       with
      | P.Mc_r { logliks; _ }, progress ->
        Alcotest.(check int) "replicates" 3 (Array.length logliks);
        Alcotest.(check int) "progress frames interleaved" 3 progress
      | _ -> Alcotest.fail "expected Mc_r");
      (* A syntactically-valid but meaningless request keeps the
         connection alive with a Bad_request reply. *)
      P.write_frame oc (J.Obj [ ("id", J.Str "weird") ]);
      (match P.read_frame ic with
      | Ok j -> (
        match P.frame_of_json j with
        | Ok (P.Reply { reply = P.Error_r { code = P.Bad_request; _ }; _ }) -> ()
        | _ -> Alcotest.fail "expected Bad_request")
      | Error m -> Alcotest.failf "read_frame: %s" m);
      (match roundtrip (request ~id:"bye" P.Shutdown) with
      | P.Shutdown_r, _ -> ()
      | _ -> Alcotest.fail "expected Shutdown_r");
      Unix.close fd;
      Thread.join server_thread;
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
      Alcotest.(check bool) "requests served" true (Server.served srv >= 4))

let test_socket_disconnect_and_idle_clients () =
  (* Two front-end liveness contracts: a client hanging up before its
     reply lands must cost only its own frames (SIGPIPE is ignored, the
     dead-socket write is absorbed), and a Shutdown must wake clients
     sitting idle in the middle of the read loop instead of hanging the
     final join on them. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "geomix-test-serve-dc-%d.sock" (Unix.getpid ()))
  in
  with_server (fun srv ->
      let server_thread =
        Thread.create (fun () -> Server.serve_unix srv ~path ()) ()
      in
      let rec connect tries =
        match
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          fd
        with
        | fd -> fd
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
          when tries > 0 ->
          Thread.delay 0.02;
          connect (tries - 1)
      in
      (* Connected but never sends a byte; only the shutdown below can
         release its connection thread. *)
      let idle_fd = connect 250 in
      (* Sends a request, then hangs up before the reply. *)
      let gone_fd = connect 250 in
      let gone_oc = Unix.out_channel_of_descr gone_fd in
      P.write_frame gone_oc
        (P.request_to_json (request ~id:"gone" (P.Likelihood (spec ~n:32 ()))));
      Unix.close gone_fd;
      (* The server must still be alive and answering. *)
      let fd = connect 250 in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let roundtrip req =
        P.write_frame oc (P.request_to_json req);
        let rec await () =
          match P.read_frame ic with
          | Error m -> Alcotest.failf "read_frame: %s" m
          | Ok j -> (
            match P.frame_of_json j with
            | Ok (P.Reply { reply; _ }) -> reply
            | Ok (P.Progress _) -> await ()
            | Error m -> Alcotest.failf "frame_of_json: %s" m)
        in
        await ()
      in
      (match roundtrip (request ~id:"alive" P.Ping) with
      | P.Pong -> ()
      | _ -> Alcotest.fail "expected Pong after client disconnect");
      (match roundtrip (request ~id:"bye" P.Shutdown) with
      | P.Shutdown_r -> ()
      | _ -> Alcotest.fail "expected Shutdown_r");
      Unix.close fd;
      (* Joins even though [idle_fd] never closed its end. *)
      Thread.join server_thread;
      Unix.close idle_fd;
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists path))

let test_key_of_spec_ignores_data_seed () =
  let k1 = Cache.key_of_spec (spec ~data_seed:1 ()) in
  let k2 = Cache.key_of_spec (spec ~data_seed:999 ()) in
  Alcotest.(check bool) "same shape key" true (k1 = k2);
  Alcotest.(check bool) "distinct shapes differ" true (key () <> key ~beta:0.3 ())

let test_cache_invalidate () =
  let cache = Cache.create () in
  let k = small_key 9 in
  ignore (Cache.find_or_build cache k ~build:Server.build_artifact);
  Alcotest.(check bool) "resident" true (Cache.find cache k <> None);
  Alcotest.(check bool) "invalidate removes" true (Cache.invalidate cache k);
  Alcotest.(check bool) "gone" true (Cache.find cache k = None);
  Alcotest.(check bool) "second invalidate is a no-op" false
    (Cache.invalidate cache k);
  Alcotest.(check int) "empty" 0 (Cache.length cache)

(* {2 Resilience: chaos replay through the serve path}

   The fault plan is a pure hash of (seed, site, task, attempt), so a
   chaos run is replayable bit-for-bit: a transient storm retried from
   snapshots and an SDC storm repaired by the integrity guard must both
   produce replies bitwise-identical to the fault-free run. *)

let fault_free_reference s =
  with_server (fun srv ->
      likelihood_fields (Server.handle srv (request (P.Likelihood s))))

let test_chaos_transient_bitwise () =
  let s = spec ~n:32 ~nb:16 () in
  let l0, d0, q0, _ = fault_free_reference s in
  let faults = Fault.plan ~rate:1.0 ~kinds:[ Fault.Transient ] ~seed:11 () in
  with_server ~faults ~retry:(Retry.immediate ()) (fun srv ->
      match Server.handle srv (request (P.Likelihood s)) with
      | P.Likelihood_r { loglik; log_det; quad_form; status = P.Clean; _ } ->
        Alcotest.(check bool) "loglik bitwise = fault-free" true
          (bits loglik = bits l0);
        Alcotest.(check bool) "log_det bitwise = fault-free" true
          (bits log_det = bits d0);
        Alcotest.(check bool) "quad_form bitwise = fault-free" true
          (bits quad_form = bits q0)
      | P.Likelihood_r { status; _ } ->
        Alcotest.failf "expected Clean after retry, got %s" (P.status_name status)
      | _ -> Alcotest.fail "expected Likelihood_r under transient storm")

let test_chaos_sdc_recovered_bitwise () =
  let s = spec ~n:32 ~nb:16 () in
  let l0, d0, q0, _ = fault_free_reference s in
  let faults = Fault.plan ~rate:1.0 ~kinds:[ Fault.Sdc ] ~seed:5 () in
  with_server ~faults ~integrity:true (fun srv ->
      match Server.handle srv (request (P.Likelihood s)) with
      | P.Likelihood_r
          { loglik; log_det; quad_form; status = P.Corrupt_recovered k; _ } ->
        Alcotest.(check bool) "repairs counted" true (k > 0);
        Alcotest.(check bool) "loglik bitwise = fault-free" true
          (bits loglik = bits l0);
        Alcotest.(check bool) "log_det bitwise = fault-free" true
          (bits log_det = bits d0);
        Alcotest.(check bool) "quad_form bitwise = fault-free" true
          (bits quad_form = bits q0)
      | P.Likelihood_r { status; _ } ->
        Alcotest.failf "expected Corrupt_recovered, got %s" (P.status_name status)
      | _ -> Alcotest.fail "expected Likelihood_r under SDC storm")

let test_pivot_escalation_invalidates_cache () =
  let faults = Fault.plan ~pivot_rate:1.0 ~seed:3 () in
  with_server ~faults (fun srv ->
      let s = spec ~n:32 ~nb:16 () in
      (match Server.handle srv (request (P.Likelihood s)) with
      | P.Likelihood_r { status = P.Escalated k; cache_hit = false; loglik; _ }
        ->
        Alcotest.(check bool) "bands escalated" true (k > 0);
        Alcotest.(check bool) "escalated result is finite" true
          (Float.is_finite loglik)
      | P.Likelihood_r { status; _ } ->
        Alcotest.failf "expected Escalated, got %s" (P.status_name status)
      | _ -> Alcotest.fail "expected Likelihood_r under forced pivot failures");
      (* The degraded artifact must not have been cached: the same shape
         rebuilds (and re-escalates, deterministically) instead of
         laundering an FP64-widened precision map through a warm hit. *)
      match Server.handle srv (request (P.Likelihood s)) with
      | P.Likelihood_r { status = P.Escalated _; cache_hit; _ } ->
        Alcotest.(check bool) "escalated artifact never reused" false cache_hit
      | _ -> Alcotest.fail "expected a second escalated reply")

(* {2 Graceful drain on the virtual clock} *)

let test_drain_lifecycle () =
  let sleep, elapsed = Retry.virtual_clock () in
  with_server ~now:elapsed ~drain_deadline_s:2.0 (fun srv ->
      Alcotest.(check bool) "running" true (Server.drain_status srv = `Running);
      Alcotest.(check bool) "slot" true (Server.admit srv ~rank:1 = `Admitted);
      Alcotest.(check bool) "drain starts" true (Server.request_drain srv);
      Alcotest.(check bool) "idempotent" false (Server.request_drain srv);
      (match Server.drain_status srv with
      | `Draining r -> Alcotest.(check (float 1e-9)) "full deadline left" 2.0 r
      | _ -> Alcotest.fail "expected `Draining with work in flight");
      (* Admission refuses while draining; probes still answer. *)
      (match Server.handle srv (request (P.Likelihood (spec ()))) with
      | P.Error_r { code = P.Saturated; _ } -> ()
      | _ -> Alcotest.fail "expected Saturated during drain");
      (match Server.handle srv (request P.Ping) with
      | P.Pong -> ()
      | _ -> Alcotest.fail "Ping must answer during drain");
      sleep 1.0;
      (match Server.drain_status srv with
      | `Draining r -> Alcotest.(check (float 1e-9)) "clock advanced" 1.0 r
      | _ -> Alcotest.fail "still draining before the deadline");
      sleep 5.0;
      (match Server.drain_status srv with
      | `Expired -> ()
      | _ -> Alcotest.fail "expected `Expired past the deadline");
      (* The straggler finishing late still ends the drain cleanly:
         [`Drained] wins over [`Expired] once nothing is in flight. *)
      Server.release srv;
      match Server.drain_status srv with
      | `Drained -> ()
      | _ -> Alcotest.fail "expected `Drained once the last request finished")

let test_drain_completes_before_deadline () =
  let _sleep, elapsed = Retry.virtual_clock () in
  with_server ~now:elapsed (fun srv ->
      Alcotest.(check bool) "slot" true (Server.admit srv ~rank:1 = `Admitted);
      ignore (Server.request_drain srv);
      Server.release srv;
      match Server.drain_status srv with
      | `Drained -> ()
      | _ -> Alcotest.fail "expected `Drained with no work left")

let test_force_stop () =
  with_server (fun srv ->
      Alcotest.(check bool) "not draining" false (Server.draining srv);
      Server.force_stop srv;
      Alcotest.(check bool) "stopped counts as draining" true (Server.draining srv);
      Alcotest.(check bool) "stopped" true (Server.drain_status srv = `Stopped);
      Alcotest.(check bool) "drain after stop refused" false
        (Server.request_drain srv);
      match Server.handle srv (request (P.Likelihood (spec ()))) with
      | P.Error_r { code = P.Saturated; _ } -> ()
      | _ -> Alcotest.fail "expected Saturated after force_stop")

(* {2 Signal-driven lifecycle through the socket front end}

   [notify_signal] is the exact handler body the SIGTERM/SIGINT handler
   runs, so driving it from a test thread exercises the real drain and
   second-signal paths without delivering raw signals. *)

let await_socket path =
  let rec wait tries =
    if Sys.file_exists path then ()
    else if tries = 0 then Alcotest.fail "server socket never appeared"
    else begin
      Thread.delay 0.02;
      wait (tries - 1)
    end
  in
  wait 500

let test_signal_drains_to_completion () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "geomix-test-drain-%d.sock" (Unix.getpid ()))
  in
  with_server (fun srv ->
      let outcome = ref None in
      let th =
        Thread.create
          (fun () -> outcome := Some (Server.serve_unix srv ~path ()))
          ()
      in
      await_socket path;
      Server.notify_signal ();
      Thread.join th;
      (match !outcome with
      | Some Server.Drained -> ()
      | Some o -> Alcotest.failf "expected drained, got %s" (Server.outcome_name o)
      | None -> Alcotest.fail "serve_unix never returned");
      Alcotest.(check bool) "socket removed" false (Sys.file_exists path))

let test_second_signal_forces_stop () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "geomix-test-force-%d.sock" (Unix.getpid ()))
  in
  with_server (fun srv ->
      let outcome = ref None in
      let th =
        Thread.create
          (fun () -> outcome := Some (Server.serve_unix srv ~path ()))
          ()
      in
      await_socket path;
      Server.notify_signal ();
      Server.notify_signal ();
      Thread.join th;
      (match !outcome with
      | Some Server.Forced -> ()
      | Some o -> Alcotest.failf "expected forced, got %s" (Server.outcome_name o)
      | None -> Alcotest.fail "serve_unix never returned");
      Alcotest.(check bool) "lifecycle stopped" true
        (Server.drain_status srv = `Stopped))

(* {2 Health probes} *)

let test_health_request () =
  with_server (fun srv ->
      (match Server.handle srv (request P.Health) with
      | P.Health_r h ->
        Alcotest.(check int) "idle inflight" 0 h.P.inflight;
        Alcotest.(check int) "idle queued" 0 h.P.queued;
        Alcotest.(check bool) "not draining" false h.P.draining;
        Alcotest.(check bool) "no brown-out" false h.P.brownout
      | _ -> Alcotest.fail "expected Health_r");
      (match Server.handle srv (request (P.Likelihood (spec ~n:32 ()))) with
      | P.Likelihood_r _ -> ()
      | _ -> Alcotest.fail "expected Likelihood_r");
      ignore (Server.request_drain srv);
      (* Health answers before admission, so probes work while draining. *)
      match Server.handle srv (request P.Health) with
      | P.Health_r h ->
        Alcotest.(check bool) "draining reported" true h.P.draining;
        Alcotest.(check bool) "served counted" true (h.P.cache_misses >= 1)
      | _ -> Alcotest.fail "expected Health_r during drain")

(* {2 Brown-out breaker} *)

let test_breaker_trips_and_recovers () =
  let sleep, elapsed = Retry.virtual_clock () in
  let b = Breaker.create ~now:elapsed () in
  Alcotest.(check bool) "starts closed" false (Breaker.tripped b);
  Alcotest.(check int) "closed batches uncapped" 64
    (Breaker.mc_chunk b ~replicates:64);
  for _ = 1 to 7 do
    Breaker.note_queue b ~frac:1.0
  done;
  Alcotest.(check bool) "below min_samples" false (Breaker.tripped b);
  Breaker.note_queue b ~frac:1.0;
  Alcotest.(check bool) "tripped on queue depth" true (Breaker.tripped b);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  Alcotest.(check int) "open batches capped" 4 (Breaker.mc_chunk b ~replicates:64);
  Alcotest.(check int) "cap never exceeds the batch" 2
    (Breaker.mc_chunk b ~replicates:2);
  (* Hysteresis leg 1: the hold alone does not recover a hot window. *)
  sleep 1.5;
  Alcotest.(check bool) "hot window holds it open" true (Breaker.tripped b);
  (* Hysteresis leg 2: a cooled window recovers only after the hold.  The
     window holds the 8 saturated samples; the 24th zero is the first that
     drags the mean down to the 0.25 low-water mark (8/32), so recovery —
     and the window clearing — fires exactly on that push. *)
  for _ = 1 to 24 do
    Breaker.note_queue b ~frac:0.0
  done;
  Alcotest.(check bool) "recovered" false (Breaker.tripped b);
  Alcotest.(check int) "recovery is not a trip" 1 (Breaker.trips b);
  (* Windows are cleared on recovery: stale saturation samples cannot
     re-trip it below min_samples. *)
  for _ = 1 to 7 do
    Breaker.note_queue b ~frac:1.0
  done;
  Alcotest.(check bool) "cleared window needs fresh evidence" false
    (Breaker.tripped b);
  Breaker.note_queue b ~frac:1.0;
  Alcotest.(check bool) "re-tripped" true (Breaker.tripped b);
  Alcotest.(check int) "second trip counted" 2 (Breaker.trips b)

let test_breaker_trips_on_miss_rate () =
  let _sleep, elapsed = Retry.virtual_clock () in
  let b = Breaker.create ~now:elapsed () in
  for _ = 1 to 8 do
    Breaker.note_outcome b ~missed:true
  done;
  Alcotest.(check bool) "tripped on deadline misses" true (Breaker.tripped b)

let test_brownout_sheds_low_priority () =
  let cfg = { Breaker.default_config with window = 8; min_samples = 1 } in
  with_server ~breaker_config:cfg (fun srv ->
      Breaker.note_outcome (Server.breaker srv) ~missed:true;
      Alcotest.(check bool) "tripped" true (Breaker.tripped (Server.breaker srv));
      (match Server.handle srv (request ~priority:P.Low (P.Likelihood (spec ()))) with
      | P.Error_r { code = P.Saturated; message } ->
        Alcotest.(check bool) "shed, not queue-full" true
          (String.length message >= 9 && String.sub message 0 9 = "brown-out")
      | _ -> Alcotest.fail "expected the Low request shed");
      (* Higher classes still pass, and Monte-Carlo fan-out is capped but
         the batch still completes in full. *)
      let events = ref 0 in
      let on_progress ~completed:_ ~total:_ = incr events in
      (match
         Server.handle srv ~on_progress
           (request (P.Mc_batch { spec = spec ~n:32 (); replicates = 10 }))
       with
      | P.Mc_r { logliks; status = P.Clean; _ } ->
        Alcotest.(check int) "all replicates despite the cap" 10
          (Array.length logliks);
        Alcotest.(check int) "progress still per replicate" 10 !events
      | _ -> Alcotest.fail "expected Mc_r during brown-out");
      match Server.handle srv (request P.Health) with
      | P.Health_r h ->
        Alcotest.(check bool) "brown-out reported" true h.P.brownout;
        Alcotest.(check int) "shed counted" 1 h.P.shed
      | _ -> Alcotest.fail "expected Health_r")

(* {2 Per-request tracing and the stats surfaces} *)

module Metrics = Geomix_obs.Metrics
module Expo = Geomix_obs.Expo

let with_traced_server ?(trace_sample = 1.0) f =
  let obs = Metrics.create () in
  let pool = Pool.create ~num_workers:0 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> f obs (Server.create ~obs ~trace_sample ~pool ()))

let counter_of snap name =
  match Metrics.find snap name with Some (Metrics.Counter c) -> c | _ -> 0

(* At [trace_sample = 1.0] every payload reply carries a footer whose byte
   ledger equals the registry's aggregate RAW-edge accounting bitwise —
   both sides are incremented from the same kernel closure call. *)
let test_traced_footer_conservation () =
  with_traced_server (fun obs srv ->
      let replies =
        List.map
          (fun (id, s) -> Server.handle_traced srv (request ~id (P.Likelihood s)))
          [ ("a", spec ()); ("b", spec ~n:32 ()); ("a2", spec ()) ]
      in
      let footers =
        List.map
          (function
            | P.Likelihood_r _, Some f -> f
            | P.Likelihood_r _, None ->
              Alcotest.fail "traced likelihood reply lost its footer"
            | _ -> Alcotest.fail "expected Likelihood_r")
          replies
      in
      let sum g = List.fold_left (fun acc f -> acc + g f) 0 footers in
      let snap = Metrics.snapshot obs in
      Alcotest.(check int) "footer STC bytes = registry shipped_bytes"
        (counter_of snap "cholesky.shipped_bytes")
        (sum (fun f -> f.P.f_span.Geomix_obs.Span.s_bytes_stc));
      Alcotest.(check int) "footer FP64 bytes = registry shipped_bytes_fp64"
        (counter_of snap "cholesky.shipped_bytes_fp64")
        (sum (fun f -> f.P.f_span.Geomix_obs.Span.s_bytes_fp64));
      Alcotest.(check int) "footer edges = registry shipped_edges"
        (counter_of snap "cholesky.shipped_edges")
        (sum (fun f -> f.P.f_span.Geomix_obs.Span.s_edges));
      List.iter
        (fun f ->
          Alcotest.(check bool) "attributed bytes are positive" true
            (f.P.f_span.Geomix_obs.Span.s_bytes_stc > 0);
          Alcotest.(check bool) "modeled energy is positive" true
            (f.P.f_energy_j > 0.);
          Alcotest.(check bool) "critical path is positive" true
            (f.P.f_cp_s > 0.);
          Alcotest.(check string) "status carried" "clean" f.P.f_status)
        footers;
      (* The per-precision split sums back to the total. *)
      List.iter
        (fun f ->
          let by = f.P.f_span.Geomix_obs.Span.s_by_precision in
          Alcotest.(check int) "precision split sums to the total"
            f.P.f_span.Geomix_obs.Span.s_bytes_stc
            (List.fold_left (fun acc (_, b) -> acc + b) 0 by))
        footers;
      (* The warm repeat of shape [a] is a cache hit in its footer. *)
      match replies with
      | [ _; _; (_, Some f) ] ->
        Alcotest.(check bool) "warm repeat flagged as hit" true f.P.f_cache_hit
      | _ -> Alcotest.fail "expected three traced replies")

let test_untraced_no_footer () =
  with_traced_server ~trace_sample:0. (fun _obs srv ->
      match Server.handle_traced srv (request (P.Likelihood (spec ()))) with
      | P.Likelihood_r _, None -> ()
      | P.Likelihood_r _, Some _ ->
        Alcotest.fail "trace_sample = 0 must not produce footers"
      | _ -> Alcotest.fail "expected Likelihood_r")

(* Sampling is a deterministic function of the request id: the same id
   either always or never traces, independent of arrival order. *)
let test_sampling_deterministic () =
  with_traced_server ~trace_sample:0.5 (fun _obs srv ->
      let traced id =
        match Server.handle_traced srv (request ~id (P.Likelihood (spec ()))) with
        | P.Likelihood_r _, f -> Option.is_some f
        | _ -> Alcotest.fail "expected Likelihood_r"
      in
      let ids = List.init 16 (fun i -> Printf.sprintf "req-%d" i) in
      let first = List.map traced ids in
      let second = List.map traced ids in
      Alcotest.(check (list bool)) "same ids sample identically" first second)

let test_stats_request () =
  with_traced_server (fun obs srv ->
      ignore (Server.handle srv (request (P.Likelihood (spec ()))));
      (match Server.handle srv (request (P.Stats P.Stats_json)) with
      | P.Stats_r { format = P.Stats_json; body } -> (
        match J.of_string body with
        | Error m -> Alcotest.failf "stats body is not json: %s" m
        | Ok j -> (
          match Metrics.of_json j with
          | Ok snap ->
            Alcotest.(check bool) "snapshot carries serve.requests" true
              (counter_of snap "serve.requests" >= 1)
          | Error m -> Alcotest.failf "stats json did not decode: %s" m))
      | _ -> Alcotest.fail "expected Stats_r json");
      match Server.handle srv (request (P.Stats P.Stats_prom)) with
      | P.Stats_r { format = P.Stats_prom; body } ->
        Alcotest.(check (list string)) "prom body lints clean" [] (Expo.lint body);
        (match Expo.parse body with
        | Ok samples ->
          let live = Metrics.snapshot obs in
          (match Expo.find samples "geomix_serve_requests" with
          | Some s ->
            Alcotest.(check int) "scrape matches the registry"
              (counter_of live "serve.requests")
              (int_of_float s.Expo.value)
          | None -> Alcotest.fail "geomix_serve_requests missing from scrape")
        | Error m -> Alcotest.failf "prom body did not parse: %s" m)
      | _ -> Alcotest.fail "expected Stats_r prom")

let test_stats_codec_roundtrip () =
  List.iter roundtrip_request
    [ request (P.Stats P.Stats_json); request (P.Stats P.Stats_prom) ];
  roundtrip_frame
    (P.Reply
       {
         id = "s";
         reply = P.Stats_r { format = P.Stats_prom; body = "# scrape\n" };
         footer = None;
       })

let test_footer_codec_roundtrip () =
  with_traced_server (fun _obs srv ->
      match Server.handle_traced srv (request (P.Likelihood (spec ()))) with
      | reply, Some footer ->
        roundtrip_frame (P.Reply { id = "t"; reply; footer = Some footer })
      | _, None -> Alcotest.fail "expected a footer to round-trip")

(* Satellite: the serve registry exports the cache and brown-out window
   instruments, so one scrape sees admission, cache and breaker health. *)
let test_serve_metric_presence () =
  with_traced_server (fun obs srv ->
      ignore (Server.handle srv (request (P.Likelihood (spec ()))));
      ignore (Server.handle srv (request (P.Likelihood (spec ()))));
      let snap = Metrics.snapshot obs in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " registered") true
            (Option.is_some (Metrics.find snap name)))
        [
          "serve.cache.hits";
          "serve.cache.misses";
          "serve.cache.evictions";
          "serve.cache.invalidations";
          "serve.brownout";
          "serve.brownout_trips";
          "serve.brownout_queue_mean";
          "serve.brownout_miss_mean";
          "serve.latency_s";
        ];
      Alcotest.(check int) "warm repeat hit counted" 1
        (counter_of snap "serve.cache.hits");
      ignore srv)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request codec round-trips" `Quick test_request_roundtrip;
          Alcotest.test_case "frame codec round-trips" `Quick test_frame_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick test_reject_malformed;
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          Alcotest.test_case "framing round-trips" `Quick test_framing_roundtrip;
          Alcotest.test_case "framing eof and oversize" `Quick
            test_framing_eof_and_oversize;
        ] );
      ( "admission",
        [
          Alcotest.test_case "saturation rejects" `Quick test_admission_saturation;
          Alcotest.test_case "priority order" `Quick test_admission_priority_order;
          Alcotest.test_case "deadline at admission" `Quick test_deadline_at_admission;
          Alcotest.test_case "deadline mid-batch" `Quick test_deadline_mid_batch;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key ignores data seed" `Quick
            test_key_of_spec_ignores_data_seed;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "single-flight build" `Quick test_cache_single_flight;
          Alcotest.test_case "interleaving replay" `Quick
            test_cache_interleaving_replay;
          Alcotest.test_case "cache-hit bit identity" `Quick
            test_cache_hit_bit_identity;
          QCheck_alcotest.to_alcotest prop_cache_hit_bit_identity;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "transient storm replays bitwise" `Quick
            test_chaos_transient_bitwise;
          Alcotest.test_case "sdc storm recovered bitwise" `Quick
            test_chaos_sdc_recovered_bitwise;
          Alcotest.test_case "pivot escalation invalidates cache" `Quick
            test_pivot_escalation_invalidates_cache;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "drain state machine" `Quick test_drain_lifecycle;
          Alcotest.test_case "drain completes before deadline" `Quick
            test_drain_completes_before_deadline;
          Alcotest.test_case "force stop" `Quick test_force_stop;
          Alcotest.test_case "signal drains to completion" `Quick
            test_signal_drains_to_completion;
          Alcotest.test_case "second signal forces stop" `Quick
            test_second_signal_forces_stop;
          Alcotest.test_case "health probe" `Quick test_health_request;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips and recovers" `Quick
            test_breaker_trips_and_recovers;
          Alcotest.test_case "trips on miss rate" `Quick
            test_breaker_trips_on_miss_rate;
          Alcotest.test_case "sheds low priority" `Quick
            test_brownout_sheds_low_priority;
        ] );
      ( "service",
        [
          Alcotest.test_case "mc batch progress" `Quick test_mc_progress_and_batch;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "socket end to end" `Quick test_socket_end_to_end;
          Alcotest.test_case "disconnect and idle clients" `Quick
            test_socket_disconnect_and_idle_clients;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "footer conservation" `Quick
            test_traced_footer_conservation;
          Alcotest.test_case "untraced has no footer" `Quick
            test_untraced_no_footer;
          Alcotest.test_case "sampling deterministic" `Quick
            test_sampling_deterministic;
          Alcotest.test_case "stats request" `Quick test_stats_request;
          Alcotest.test_case "stats codec round-trips" `Quick
            test_stats_codec_roundtrip;
          Alcotest.test_case "footer codec round-trips" `Quick
            test_footer_codec_roundtrip;
          Alcotest.test_case "serve metric presence" `Quick
            test_serve_metric_presence;
        ] );
    ]
