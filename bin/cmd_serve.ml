(* geomix serve: the model service on a Unix-domain socket. *)

open Cmdliner
open Cli
module Server = Geomix_serve.Server
module Cache = Geomix_serve.Cache
module Fault = Geomix_fault.Fault

let run socket workers max_inflight queue_capacity cache_capacity max_requests
    drain_deadline integrity retry_attempts trace_sample stats_socket
    telemetry_out chaos_seed chaos_rate chaos_pivot_rate chaos_sdc verbose =
  let obs = Metrics.create () in
  attach_stderr_of ~verbose obs;
  let faults =
    match chaos_seed with
    | None -> None
    | Some seed ->
      let kinds =
        if chaos_sdc then [ Fault.Transient; Fault.Sdc ]
        else [ Fault.Transient ]
      in
      Some
        (Fault.plan ~obs ~rate:chaos_rate ~kinds
           ~pivot_rate:chaos_pivot_rate ~seed ())
  in
  let retry =
    if retry_attempts <= 1 then None
    else Some { Geomix_fault.Retry.default with max_attempts = retry_attempts }
  in
  (* SDC injection without a guard would serve silently wrong numbers —
     the one configuration the serving layer must never run in. *)
  let integrity = integrity || chaos_sdc in
  Pool.with_pool ~obs ?num_workers:workers (fun pool ->
      let server =
        Server.create ~obs ~max_inflight ~queue_capacity ~cache_capacity
          ?faults ?retry ~integrity ~drain_deadline_s:drain_deadline
          ~trace_sample ~pool ()
      in
      Server.install_drain_signals ();
      Printf.printf
        "geomix serve: listening on %s (%d worker domains, %d slots, queue %d)\n%!"
        socket
        (Pool.num_workers pool)
        max_inflight queue_capacity;
      let telemetry =
        Option.map
          (fun path -> Geomix_obs.Expo.snapshotter ~path ())
          telemetry_out
      in
      let outcome =
        Fun.protect
          ~finally:(fun () -> Option.iter Geomix_obs.Expo.close telemetry)
          (fun () ->
            Server.serve_unix server ~path:socket ?max_requests
              ?stats_path:stats_socket ?telemetry ())
      in
      let s = Cache.stats (Server.cache server) in
      let h = Server.health server in
      Printf.printf
        "geomix serve: stopped (%s) after %d requests (cache: %d hits, %d \
         misses, %d evictions; recovered %d, escalated %d, shed %d)\n%!"
        (Server.outcome_name outcome)
        (Server.served server) s.Cache.hits s.Cache.misses s.Cache.evictions
        h.Geomix_serve.Protocol.recovered h.Geomix_serve.Protocol.escalated
        h.Geomix_serve.Protocol.shed;
      match outcome with
      | Server.Served | Server.Drained -> ()
      | Server.Drain_expired -> exit 3
      | Server.Forced -> exit 4)

let cmd =
  let max_inflight_arg =
    Arg.(
      value & opt int 4
      & info [ "max-inflight" ]
          ~doc:"Concurrent requests executing on the pool.")
  in
  let queue_capacity_arg =
    Arg.(
      value & opt int 16
      & info [ "queue-capacity" ]
          ~doc:
            "Admission queue depth; requests beyond it are rejected with a \
             saturated error.")
  in
  let cache_capacity_arg =
    Arg.(
      value & opt int 32
      & info [ "cache-capacity" ]
          ~doc:"Shape-keyed artifact cache entries (LRU beyond this).")
  in
  let max_requests_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ]
          ~doc:"Stop after answering this many requests (smoke tests).")
  in
  let drain_deadline_arg =
    Arg.(
      value & opt float 5.0
      & info [ "drain-deadline" ]
          ~doc:
            "Seconds the first SIGTERM/SIGINT lets queued and in-flight \
             requests finish before the run gives up (exit 3); a second \
             signal forces an immediate stop (exit 4).")
  in
  let integrity_arg =
    Arg.(
      value & flag
      & info [ "integrity" ]
          ~doc:
            "Guard every request's factorization with per-tile ABFT \
             checksums: silent data corruption is detected, quarantined and \
             repaired in place (forced on under $(b,--chaos-sdc)).")
  in
  let retry_attempts_arg =
    Arg.(
      value & opt int 3
      & info [ "retry-attempts" ]
          ~doc:
            "Bounded supervised-retry attempts per kernel (jittered \
             exponential backoff); 1 disables retry.")
  in
  let trace_sample_arg =
    Arg.(
      value & opt float 0.
      & info [ "trace-sample" ]
          ~doc:
            "Fraction of requests to trace end to end (0 disables, 1 traces \
             every request).  Sampling is a deterministic function of the \
             request id; a traced request's terminal reply carries a \
             telemetry footer with per-request bytes moved, modeled energy \
             and critical-path attribution.")
  in
  let stats_socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-socket" ]
          ~doc:
            "Bind a second Unix socket that answers every connection with \
             one Prometheus text exposition of the server's metrics \
             registry — a scrape endpoint independent of admission.")
  in
  let telemetry_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-out" ]
          ~doc:
            "Append rolling registry snapshots (one JSON line per second) \
             to this file, size-rotated to PATH.1..PATH.3.")
  in
  let chaos_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ]
          ~doc:
            "Arm a seeded fault plan inside the server's execution stack — \
             the chaos-under-load harness.  Decisions are pure functions of \
             the seed, so a run is replayable bit for bit.")
  in
  let chaos_rate_arg =
    Arg.(
      value & opt probability 0.05
      & info [ "chaos-rate" ]
          ~doc:"Injection probability per task attempt under $(b,--chaos-seed).")
  in
  let chaos_pivot_rate_arg =
    Arg.(
      value & opt probability 0.0
      & info [ "chaos-pivot-rate" ]
          ~doc:
            "Forced pivot-failure probability — drives band-to-FP64 \
             escalation, surfaced to clients as an $(i,escalated) status.")
  in
  let chaos_sdc_arg =
    Arg.(
      value & flag
      & info [ "chaos-sdc" ]
          ~doc:
            "Additionally inject silent data corruption (implies \
             $(b,--integrity) so every corruption is caught and repaired).")
  in
  let exits =
    Cmd.Exit.info 0
      ~doc:
        "the run ended by a $(i,shutdown) request, $(b,--max-requests), or a \
         drain that finished every queued and in-flight request before \
         $(b,--drain-deadline)."
    :: Cmd.Exit.info 3
         ~doc:
           "a drain (first SIGTERM/SIGINT) expired with requests still in \
            flight."
    :: Cmd.Exit.info 4
         ~doc:"a second SIGTERM/SIGINT forced an immediate stop."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the model service: a Unix-domain-socket server evaluating \
          likelihood, kriging prediction and Monte-Carlo likelihood batches \
          over a shared domain pool, with a shape-keyed cache of precision \
          maps, communication maps and DAG schedules; \
          requests execute under supervised retry, integrity guards and \
          precision-escalation recovery, with graceful SIGTERM drain and \
          overload brown-out")
    Term.(
      const run
      $ socket_arg ~doc:"Unix-domain socket path to listen on."
      $ workers_arg "" $ max_inflight_arg
      $ queue_capacity_arg $ cache_capacity_arg $ max_requests_arg
      $ drain_deadline_arg $ integrity_arg $ retry_attempts_arg
      $ trace_sample_arg $ stats_socket_arg $ telemetry_out_arg
      $ chaos_seed_arg $ chaos_rate_arg $ chaos_pivot_rate_arg $ chaos_sdc_arg
      $ verbose_arg)
