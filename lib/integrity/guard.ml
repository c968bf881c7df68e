module Metrics = Geomix_obs.Metrics
module Events = Geomix_obs.Events
module Mat = Geomix_linalg.Mat
module Fpformat = Geomix_precision.Fpformat

type violation = { key : int; task : string; reason : string }

exception Corrupt of violation

let () =
  Printexc.register_printer (function
    | Corrupt { key; task; reason } ->
      Some
        (Printf.sprintf "Geomix_integrity.Guard.Corrupt(key %d in %s: %s)" key
           task reason)
    | _ -> None)

type obs_state = {
  m_stamped : Metrics.counter;
  m_verified : Metrics.counter;
  m_detected : Metrics.counter;
  m_recovered : Metrics.counter;
  m_violations : Metrics.counter;
  m_bytes : Metrics.counter;
  events : Events.t;
}

type entry = { cs : Checksum.t; snap : Mat.t option }

type t = {
  snapshots : bool;
  mutex : Mutex.t;
  table : (int, entry) Hashtbl.t;
  n_stamped : int Atomic.t;
  n_verified : int Atomic.t;
  n_detected : int Atomic.t;
  n_recovered : int Atomic.t;
  n_violations : int Atomic.t;
  n_bytes : int Atomic.t;
  obs : obs_state option;
}

let create ?obs ?(snapshots = false) () =
  {
    snapshots;
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    n_stamped = Atomic.make 0;
    n_verified = Atomic.make 0;
    n_detected = Atomic.make 0;
    n_recovered = Atomic.make 0;
    n_violations = Atomic.make 0;
    n_bytes = Atomic.make 0;
    obs =
      Option.map
        (fun reg ->
          {
            m_stamped = Metrics.counter reg "integrity.stamped";
            m_verified = Metrics.counter reg "integrity.verified";
            m_detected = Metrics.counter reg "integrity.sdc_detected";
            m_recovered = Metrics.counter reg "integrity.sdc_recovered";
            m_violations = Metrics.counter reg "integrity.violations";
            m_bytes = Metrics.counter reg "integrity.hashed_bytes";
            events = Metrics.events reg;
          })
        obs;
  }

let snapshots t = t.snapshots

let reset t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.table;
  Mutex.unlock t.mutex

let find t ~key =
  Mutex.lock t.mutex;
  let e = Hashtbl.find_opt t.table key in
  Mutex.unlock t.mutex;
  Option.map (fun e -> e.cs) e

let emit t level name fields =
  match t.obs with
  | None -> ()
  | Some o -> Events.emit ~level o.events ~component:"integrity" ~name fields

let count_bytes t n =
  Atomic.fetch_and_add t.n_bytes n |> ignore;
  match t.obs with None -> () | Some o -> Metrics.add o.m_bytes n

let put t ~key cs snap =
  Mutex.lock t.mutex;
  Hashtbl.replace t.table key { cs; snap };
  Mutex.unlock t.mutex;
  Atomic.incr t.n_stamped;
  count_bytes t (Checksum.bytes cs);
  match t.obs with None -> () | Some o -> Metrics.incr o.m_stamped

let stamp t ~key m =
  put t ~key (Checksum.stamp m) (if t.snapshots then Some (Mat.copy m) else None)

let check t ~key m =
  Atomic.incr t.n_verified;
  count_bytes t (8 * Mat.rows m * Mat.cols m);
  (match t.obs with None -> () | Some o -> Metrics.incr o.m_verified);
  match find t ~key with None -> true | Some cs -> Checksum.matches cs m

let note_detected t ~key ~task =
  Atomic.incr t.n_detected;
  (match t.obs with None -> () | Some o -> Metrics.incr o.m_detected);
  emit t Events.Warn "sdc_detected"
    [ ("key", Events.fint key); ("task", Events.fstr task) ]

let note_recovered t ~key ~task =
  Atomic.incr t.n_recovered;
  (match t.obs with None -> () | Some o -> Metrics.incr o.m_recovered);
  emit t Events.Warn "sdc_recovered"
    [ ("key", Events.fint key); ("task", Events.fstr task) ]

let corrupt t ~key ~task reason =
  Atomic.incr t.n_violations;
  (match t.obs with None -> () | Some o -> Metrics.incr o.m_violations);
  emit t Events.Error "corrupt"
    [
      ("key", Events.fint key);
      ("task", Events.fstr task);
      ("reason", Events.fstr reason);
    ];
  raise (Corrupt { key; task; reason })

let verify t ~key ~task m =
  if not (check t ~key m) then begin
    note_detected t ~key ~task;
    corrupt t ~key ~task "checksum mismatch"
  end

let restore t ~key dst =
  Mutex.lock t.mutex;
  let snap = Option.bind (Hashtbl.find_opt t.table key) (fun e -> e.snap) in
  Mutex.unlock t.mutex;
  match snap with
  | Some s when Mat.rows s = Mat.rows dst && Mat.cols s = Mat.cols dst ->
    Mat.blit ~src:s ~dst;
    true
  | _ -> false

let derive t ~from_key ~key ~scalar ~task m =
  match find t ~key:from_key with
  | None -> stamp t ~key m
  | Some cs ->
    Atomic.incr t.n_verified;
    count_bytes t (8 * Mat.rows m * Mat.cols m);
    (match t.obs with None -> () | Some o -> Metrics.incr o.m_verified);
    if Checksum.matches_scalar cs ~scalar m then stamp t ~key m
    else begin
      note_detected t ~key ~task;
      corrupt t ~key ~task
        (Printf.sprintf "conversion fingerprint out of tolerance (to %s)"
           (Fpformat.scalar_name scalar))
    end

let stamped t = Atomic.get t.n_stamped
let verified t = Atomic.get t.n_verified
let detected t = Atomic.get t.n_detected
let recovered t = Atomic.get t.n_recovered
let violations t = Atomic.get t.n_violations
let hashed_bytes t = Atomic.get t.n_bytes
