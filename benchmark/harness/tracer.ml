module Trace = Geomix_runtime.Trace

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;
  op : int;
  lane : int;
}

type t = {
  enabled : bool;
  origin : float;
  mutex : Mutex.t;
  mutable next : int;
  mutable recorded : span list;  (* newest first *)
}

let create ~enabled =
  {
    enabled;
    origin = Unix.gettimeofday ();
    mutex = Mutex.create ();
    next = 0;
    recorded = [];
  }

let enabled t = t.enabled

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let span t ?(lane = 0) ?(parent = -1) ~op name f =
  if not t.enabled then f (-1)
  else begin
    let id =
      locked t (fun () ->
          let id = t.next in
          t.next <- id + 1;
          id)
    in
    let start = Unix.gettimeofday () -. t.origin in
    let record () =
      let stop = Unix.gettimeofday () -. t.origin in
      let s = { id; name; start; stop; parent; op; lane } in
      locked t (fun () -> t.recorded <- s :: t.recorded)
    in
    Fun.protect ~finally:record (fun () -> f id)
  end

let spans t = locked t (fun () -> List.rev t.recorded)

let durations t name =
  spans t
  |> List.filter_map (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
  |> Array.of_list

let total t name = Array.fold_left ( +. ) 0. (durations t name)

let to_chrome_json t =
  let tr = Trace.create () in
  List.iter
    (fun s ->
      Trace.add tr
        {
          Trace.label = s.name;
          resource = s.lane;
          start = s.start;
          stop = s.stop;
          tag = Printf.sprintf "op=%d id=%d parent=%d" s.op s.id s.parent;
        })
    (spans t);
  Trace.to_chrome_json ~resource_name:(Printf.sprintf "lane %d") tr
