(* One lock for the whole pool rather than a free list per domain.  A
   buffer is often given back on another domain than the one that took it:
   a broadcast form is taken by the pool worker that publishes it and given
   back by the domain that ran the factorization.  And several systhreads
   of one domain (the server's connections, the callers a serial pool runs
   jobs on) would share a per-domain list anyway. *)

let keep = 32
let keep_bytes = 32 lsl 20

let lock = Mutex.create ()
let shelves : (int * int, Mat.t list) Hashtbl.t = Hashtbl.create 16
let kept_bytes = ref 0
let bytes m = 8 * Mat.rows m * Mat.cols m

let take ~rows ~cols =
  let recycled =
    Mutex.protect lock (fun () ->
      match Hashtbl.find_opt shelves (rows, cols) with
      | Some (m :: rest) ->
        Hashtbl.replace shelves (rows, cols) rest;
        kept_bytes := !kept_bytes - bytes m;
        Some m
      | _ -> None)
  in
  match recycled with Some m -> m | None -> Mat.create ~rows ~cols

let give m =
  let key = (Mat.rows m, Mat.cols m) and b = bytes m in
  Mutex.protect lock (fun () ->
    let free = Option.value ~default:[] (Hashtbl.find_opt shelves key) in
    if List.length free < keep && !kept_bytes + b <= keep_bytes then begin
      Hashtbl.replace shelves key (m :: free);
      kept_bytes := !kept_bytes + b
    end)

let copy m =
  let t = take ~rows:(Mat.rows m) ~cols:(Mat.cols m) in
  Mat.blit ~src:m ~dst:t;
  t

let rounded s m =
  let t = copy m in
  Mat.round_inplace s t;
  t
