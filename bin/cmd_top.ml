(* geomix top: live operator view of a running geomix serve. *)

open Cmdliner
open Cli
module P = Geomix_serve.Protocol
module Jsonlite = Geomix_obs.Jsonlite

(* One poll = one connection: Health plus a Stats(json) scrape over the
   framed protocol, so `top` exercises exactly the surface any other
   operator tooling would. *)
let poll socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let roundtrip payload =
        P.write_frame oc
          (P.request_to_json
             { P.id = "top"; priority = P.High; timeout_s = None; payload });
        let rec await () =
          match P.read_frame ic with
          | Error m -> failwith ("read_frame: " ^ m)
          | Ok j -> (
            match P.frame_of_json j with
            | Ok (P.Reply { reply; _ }) -> reply
            | Ok (P.Progress _) -> await ()
            | Error m -> failwith ("frame_of_json: " ^ m))
        in
        await ()
      in
      let health =
        match roundtrip P.Health with
        | P.Health_r h -> h
        | _ -> failwith "unexpected reply to Health"
      in
      let snap =
        match roundtrip (P.Stats P.Stats_json) with
        | P.Stats_r { body; _ } -> (
          match Jsonlite.of_string body with
          | Error m -> failwith ("stats body: " ^ m)
          | Ok j -> (
            match Metrics.of_json j with
            | Ok s -> s
            | Error m -> failwith ("stats snapshot: " ^ m)))
        | _ -> failwith "unexpected reply to Stats"
      in
      (health, snap))

let counter snap name =
  match Metrics.find snap name with Some (Metrics.Counter c) -> c | _ -> 0

let gauge snap name =
  match Metrics.find snap name with Some (Metrics.Gauge g) -> g | _ -> 0.

let shipped_prefix = "cholesky.shipped_bytes."

let by_precision snap =
  List.filter_map
    (fun (name, v) ->
      let pl = String.length shipped_prefix in
      if String.length name > pl && String.sub name 0 pl = shipped_prefix then
        match v with
        | Metrics.Counter c -> Some (String.sub name pl (String.length name - pl), c)
        | _ -> None
      else None)
    snap

let render ~socket ~clear ~dt ~prev (h, snap) =
  if clear then print_string "\027[2J\027[H";
  let p50, p99 =
    match Metrics.find snap "serve.latency_s" with
    | Some (Metrics.Histogram hs) when hs.Metrics.count > 0 ->
      (Metrics.quantile hs 0.5 *. 1e3, Metrics.quantile hs 0.99 *. 1e3)
    | _ -> (nan, nan)
  in
  let lookups = h.P.cache_hits + h.P.cache_misses in
  let hit_rate =
    if lookups = 0 then 0. else float_of_int h.P.cache_hits /. float_of_int lookups
  in
  Printf.printf "geomix top — %s%s\n\n" socket
    (if h.P.draining then "  [DRAINING]" else "");
  Printf.printf "  requests   served %-8d inflight %-4d queued %-4d peak %g\n"
    h.P.served h.P.inflight h.P.queued
    (gauge snap "serve.queue_peak");
  Printf.printf "  latency    p50 %.2f ms   p99 %.2f ms\n" p50 p99;
  Printf.printf "  cache      %.1f%% hit (%d/%d, %d evictions)\n"
    (100. *. hit_rate) h.P.cache_hits lookups h.P.cache_evictions;
  Printf.printf "  breaker    %s (%d trips, %d shed)  queue-mean %.2f  miss-mean %.2f\n"
    (if h.P.brownout then "OPEN" else "closed")
    (counter snap "serve.brownout_trips")
    h.P.shed
    (gauge snap "serve.brownout_queue_mean")
    (gauge snap "serve.brownout_miss_mean");
  Printf.printf "  recovery   recovered %d  escalated %d  retries %d\n"
    h.P.recovered h.P.escalated
    (counter snap "cholesky.retries");
  let total = counter snap "cholesky.shipped_bytes" in
  let total_fp64 = counter snap "cholesky.shipped_bytes_fp64" in
  Printf.printf "  motion     %s shipped STC (%s FP64-equivalent%s)\n"
    (fb (float_of_int total))
    (fb (float_of_int total_fp64))
    (if total_fp64 > 0 then
       Printf.sprintf ", %.1f%% saved"
         (100. *. (1. -. (float_of_int total /. float_of_int total_fp64)))
     else "");
  let prev_total = Option.fold ~none:0 ~some:(fun p -> counter p "cholesky.shipped_bytes") prev in
  if dt > 0. && prev <> None then
    Printf.printf "  rate       %s/s\n" (fb (float_of_int (total - prev_total) /. dt));
  let split = by_precision snap in
  if split <> [] then begin
    print_string "  by precision:\n";
    List.iter
      (fun (prec, bytes) ->
        let prev_bytes =
          match prev with Some p -> counter p (shipped_prefix ^ prec) | None -> 0
        in
        Printf.printf "    %-6s %10s%s\n" prec
          (fb (float_of_int bytes))
          (if dt > 0. && prev <> None then
             Printf.sprintf "  %s/s" (fb (float_of_int (bytes - prev_bytes) /. dt))
           else ""))
      split
  end;
  flush Stdlib.stdout

let run socket interval count once max_stale =
  if interval <= 0. then begin
    prerr_endline "geomix top: --interval must be positive";
    exit 2
  end;
  let rounds = if once then 1 else Option.value count ~default:max_int in
  let prev = ref None in
  let code = ref 0 in
  let backoff = ref 0.5 in
  let stale_since = ref None in
  (try
     let i = ref 0 in
     while !i < rounds && !code = 0 do
       match poll socket with
       | h, snap ->
         backoff := 0.5;
         if !stale_since <> None then begin
           stale_since := None;
           print_endline "geomix top: reconnected"
         end;
         render ~socket ~clear:(not once && rounds > 1) ~dt:interval ~prev:!prev
           (h, snap);
         prev := Some snap;
         incr i;
         if !i < rounds then Unix.sleepf interval
       | exception (Unix.Unix_error _ | Failure _ | Sys_error _)
         when (not once) && !prev <> None ->
         (* The server went away mid-watch.  Don't die: banner the data
            on screen as stale and retry with bounded exponential
            backoff until it comes back or the stale budget runs out. *)
         let now = Unix.gettimeofday () in
         let since =
           match !stale_since with
           | Some t -> t
           | None ->
             stale_since := Some now;
             now
         in
         let age = now -. since in
         if age > max_stale then begin
           Printf.eprintf
             "geomix top: %s unreachable for %.0f s (limit %.0f s) — giving up\n"
             socket age max_stale;
           code := 1
         end
         else begin
           Printf.printf
             "geomix top: [STALE %.0f s] %s unreachable — retrying in %.1f s\n"
             age socket !backoff;
           flush Stdlib.stdout;
           Unix.sleepf !backoff;
           backoff := Float.min 8.0 (!backoff *. 2.)
         end
     done
   with
  | Unix.Unix_error (e, _, _) ->
    Printf.eprintf "geomix top: cannot reach %s: %s\n" socket (Unix.error_message e);
    code := 1
  | Failure m | Sys_error m ->
    Printf.eprintf "geomix top: %s\n" m;
    code := 1);
  if !code <> 0 then exit !code

let cmd =
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~doc:"Seconds between refreshes.")
  in
  let count_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ] ~doc:"Stop after this many refreshes (default: forever).")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print a single snapshot without clearing the screen and exit.")
  in
  let max_stale_arg =
    Arg.(
      value & opt float 60.
      & info [ "max-stale" ]
          ~doc:
            "Seconds to keep retrying (with 0.5 s → 8 s exponential \
             backoff, the on-screen data bannered STALE) after the server \
             stops answering mid-watch, before exiting nonzero.  A server \
             restart inside this window reconnects seamlessly.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live operator view of a running $(b,geomix serve): polls the \
          server's $(i,stats) and $(i,health) requests and renders inflight \
          and queue depth, latency quantiles, cache hit rate, brown-out \
          breaker state and data-motion rates by transfer precision; a \
          server that goes away mid-watch is retried with bounded backoff \
          under a STALE banner instead of killing the view")
    Term.(
      const run
      $ socket_arg ~doc:"Unix-domain socket of the running server."
      $ interval_arg $ count_arg $ once_arg
      $ max_stale_arg)
