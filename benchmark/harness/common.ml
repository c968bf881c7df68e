module J = Geomix_obs.Jsonlite

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  setups : int;
  scratch : string;
}

let now = Unix.gettimeofday

let window_staged ~seconds ~prepare ~finish op =
  let paused = ref 0. in
  let excluded f =
    let t = now () in
    let r = f () in
    paused := !paused +. (now () -. t);
    r
  in
  let t0 = now () in
  let rec go k acc =
    if now () -. t0 -. !paused >= seconds then acc
    else
      let p = excluded (fun () -> prepare k) in
      let t = now () in
      let r = op k p in
      let dt = now () -. t in
      let kept = excluded (fun () -> finish k r) in
      go (k + 1) ((kept, dt) :: acc)
  in
  let results = Array.of_list (List.rev (go 0 [])) in
  (results, now () -. t0 -. !paused)

let window ~seconds op =
  window_staged ~seconds ~prepare:ignore ~finish:(fun _ r -> r) (fun k () -> op k)

let setup_repeated n f ~teardown =
  let one () =
    let t0 = now () in
    let s = f () in
    (s, now () -. t0)
  in
  let rec go i durations =
    let s, d = one () in
    if i >= n then (s, Quantile.median (Array.of_list (d :: durations)))
    else begin
      teardown s;
      go (i + 1) (d :: durations)
    end
  in
  go 1 []

let timing ~tail ~elapsed lat =
  let n = Array.length lat in
  let ms p = 1e3 *. Quantile.quantile lat p in
  ( [
      Report.metric "throughput_ops" "ops/s" (float_of_int n /. elapsed);
      Report.metric "latency_p50_ms" "ms" (ms 0.5);
      Report.metric "latency_tail_ms" "ms" (ms tail);
    ],
    [
      ("latency_samples", J.Num (float_of_int n));
      ("tail_percentile", J.Num (100. *. tail));
      ("samples_beyond_tail", J.Num (float_of_int (Quantile.beyond ~n tail)));
      ( "tail_percentile_supported",
        match Quantile.tail_percentile n with Some p -> J.Num (100. *. p) | None -> J.Null );
      ( "latency_ms",
        J.Obj
          (List.map
             (fun p -> (Printf.sprintf "p%g" (100. *. p), J.Num (ms p)))
             Quantile.ladder) );
    ] )

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
