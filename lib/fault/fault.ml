module Metrics = Geomix_obs.Metrics
module Events = Geomix_obs.Events

type kind = Transient | Crash_after_write | Stall | Sdc

type sdc = Bitflip of { bit : int; lane : int } | Tile_swap of { lane : int }

type disk_op = Dwrite | Dread

type disk =
  | Short_write of { frac : float }
  | Enospc
  | Read_bit_flip of { bit : int; lane : int }

exception Injected of { task : string; attempt : int; kind : kind }

let kind_name = function
  | Transient -> "transient"
  | Crash_after_write -> "crash-after-write"
  | Stall -> "stall"
  | Sdc -> "sdc"

let sdc_name = function
  | Bitflip { bit; lane } -> Printf.sprintf "bitflip(bit %d, lane %d)" bit lane
  | Tile_swap { lane } -> Printf.sprintf "tile-swap(lane %d)" lane

let disk_name = function
  | Short_write { frac } -> Printf.sprintf "short-write(%.2f)" frac
  | Enospc -> "enospc"
  | Read_bit_flip { bit; lane } ->
    Printf.sprintf "read-bit-flip(bit %d, lane %d)" bit lane

let () =
  Printexc.register_printer (function
    | Injected { task; attempt; kind } ->
      Some
        (Printf.sprintf "Geomix_fault.Fault.Injected(%s fault in %s, attempt %d)"
           (kind_name kind) task attempt)
    | _ -> None)

type obs_state = {
  m_injected : Metrics.counter;
  m_transient : Metrics.counter;
  m_crashes : Metrics.counter;
  m_stalls : Metrics.counter;
  m_sdc : Metrics.counter;
  m_pivots : Metrics.counter;
  m_disk : Metrics.counter;
  events : Events.t;
}

type t = {
  seed : int;
  rate : float;
  kinds : kind array;
  exec_kinds : kind array; (* [kinds] minus [Sdc] — what {!wrap} may inject *)
  pivot_rate : float;
  disk_rate : float;
  stall : float;
  sleep : float -> unit;
  fail_attempts : int;
  only : string -> bool;
  n_injected : int Atomic.t;
  n_pivots : int Atomic.t;
  n_by_kind : int Atomic.t array; (* indexed like [kinds] *)
  obs : obs_state option;
}

(* splitmix64 finalizer — the same mixing the Rng seeder uses, applied here
   as a stateless hash so decisions are a pure function of the plan seed
   and the (site, task, attempt) triple, independent of call order. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let hash_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := mix64 (Int64.add (Int64.mul !h 0x100000001b3L) (Int64.of_int (Char.code c))))
    s;
  !h

let hash_triple ~seed ~site ~task ~attempt =
  let h = mix64 (Int64.of_int seed) in
  let h = hash_string h site in
  let h = hash_string (mix64 h) task in
  mix64 (Int64.add h (Int64.of_int attempt))

(* Top 53 bits as a uniform draw in [0, 1). *)
let u01 h = Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

let plan ?obs ?(rate = 0.) ?(kinds = [ Transient ]) ?(pivot_rate = 0.)
    ?(disk_rate = 0.) ?(stall = 1e-3) ?(sleep = Unix.sleepf) ?(fail_attempts = 1)
    ?(only = fun _ -> true) ~seed () =
  if not (rate >= 0. && rate <= 1.) then invalid_arg "Fault.plan: rate outside [0, 1]";
  if not (pivot_rate >= 0. && pivot_rate <= 1.) then
    invalid_arg "Fault.plan: pivot_rate outside [0, 1]";
  if not (disk_rate >= 0. && disk_rate <= 1.) then
    invalid_arg "Fault.plan: disk_rate outside [0, 1]";
  if not (stall >= 0.) then invalid_arg "Fault.plan: negative stall";
  if fail_attempts < 1 then invalid_arg "Fault.plan: fail_attempts < 1";
  if kinds = [] then invalid_arg "Fault.plan: empty kinds";
  {
    seed;
    rate;
    kinds = Array.of_list kinds;
    exec_kinds = Array.of_list (List.filter (fun k -> k <> Sdc) kinds);
    pivot_rate;
    disk_rate;
    stall;
    sleep;
    fail_attempts;
    only;
    n_injected = Atomic.make 0;
    n_pivots = Atomic.make 0;
    n_by_kind = Array.init (List.length kinds) (fun _ -> Atomic.make 0);
    obs =
      Option.map
        (fun reg ->
          {
            m_injected = Metrics.counter reg "fault.injected";
            m_transient = Metrics.counter reg "fault.transient";
            m_crashes = Metrics.counter reg "fault.crashes";
            m_stalls = Metrics.counter reg "fault.stalls";
            m_sdc = Metrics.counter reg "fault.sdc";
            m_pivots = Metrics.counter reg "fault.pivots";
            m_disk = Metrics.counter reg "fault.disk";
            events = Metrics.events reg;
          })
        obs;
  }

let seed t = t.seed

let decide t ~site ~task ~attempt =
  let n = Array.length t.exec_kinds in
  if n = 0 || t.rate <= 0. || attempt > t.fail_attempts || not (t.only task) then
    None
  else
    let h = hash_triple ~seed:t.seed ~site ~task ~attempt in
    if u01 h < t.rate then begin
      let idx = if n = 1 then 0 else Int64.to_int (Int64.rem (Int64.shift_right_logical (mix64 h) 1) (Int64.of_int n)) in
      Some t.exec_kinds.(idx)
    end
    else None

let kind_index t k =
  let rec go i = if t.kinds.(i) = k then i else go (i + 1) in
  go 0

let record t k =
  Atomic.incr t.n_injected;
  Atomic.incr t.n_by_kind.(kind_index t k);
  match t.obs with
  | None -> ()
  | Some o ->
    Metrics.incr o.m_injected;
    Metrics.incr
      (match k with
      | Transient -> o.m_transient
      | Crash_after_write -> o.m_crashes
      | Stall -> o.m_stalls
      | Sdc -> o.m_sdc)

let emit t name fields =
  match t.obs with
  | None -> ()
  | Some o -> Events.emit ~level:Events.Warn o.events ~component:"fault" ~name fields

let emit_inject t ~site ~task ~attempt kind =
  emit t "inject"
    [
      ("site", Events.fstr site);
      ("task", Events.fstr task);
      ("attempt", Events.fint attempt);
      ("kind", Events.fstr (kind_name kind));
    ]

let wrap t ~site ~task ~attempt body =
  match decide t ~site ~task ~attempt with
  | None -> body ()
  | Some Transient ->
    record t Transient;
    emit_inject t ~site ~task ~attempt Transient;
    raise (Injected { task; attempt; kind = Transient })
  | Some Stall ->
    record t Stall;
    emit_inject t ~site ~task ~attempt Stall;
    t.sleep t.stall;
    body ()
  | Some Crash_after_write ->
    body ();
    record t Crash_after_write;
    emit_inject t ~site ~task ~attempt Crash_after_write;
    raise (Injected { task; attempt; kind = Crash_after_write })
  | Some Sdc -> assert false (* never drawn: [decide] picks from exec_kinds *)

let pivot_failure t ~task ~attempt =
  if t.pivot_rate <= 0. || attempt > t.fail_attempts || not (t.only task) then false
  else
    let h = hash_triple ~seed:t.seed ~site:"pivot" ~task ~attempt in
    let fire = u01 h < t.pivot_rate in
    if fire then begin
      Atomic.incr t.n_pivots;
      (match t.obs with None -> () | Some o -> Metrics.incr o.m_pivots);
      emit t "pivot" [ ("task", Events.fstr task); ("attempt", Events.fint attempt) ]
    end;
    fire

let has_sdc t = Array.exists (fun k -> k = Sdc) t.kinds

let sdc_decide t ~task ~attempt =
  if (not (has_sdc t)) || t.rate <= 0. || attempt > t.fail_attempts
     || not (t.only task)
  then None
  else
    let h = hash_triple ~seed:t.seed ~site:"sdc" ~task ~attempt in
    if u01 h >= t.rate then None
    else begin
      let h2 = mix64 h in
      (* lane: a nonnegative index the injection site reduces modulo its own
         element count; bit: high-order mantissa (44..51) or exponent
         (52..62) positions, the ones a norm fingerprint must catch. *)
      let lane = Int64.to_int (Int64.shift_right_logical h2 40) in
      let sdc =
        if Int64.to_int (Int64.logand h2 3L) = 0 then Tile_swap { lane }
        else
          let bit =
            44 + Int64.to_int (Int64.rem (Int64.shift_right_logical h2 2) 19L)
          in
          Bitflip { bit; lane }
      in
      record t Sdc;
      emit t "inject"
        [
          ("site", Events.fstr "sdc");
          ("task", Events.fstr task);
          ("attempt", Events.fint attempt);
          ("kind", Events.fstr (kind_name Sdc));
          ("detail", Events.fstr (sdc_name sdc));
        ];
      Some sdc
    end

let disk_op_name = function Dwrite -> "write" | Dread -> "read"

let disk_decide t ~op ~path ~attempt =
  if t.disk_rate <= 0. || attempt > t.fail_attempts || not (t.only path) then
    None
  else
    let site = "disk:" ^ disk_op_name op in
    let h = hash_triple ~seed:t.seed ~site ~task:path ~attempt in
    if u01 h >= t.disk_rate then None
    else begin
      let h2 = mix64 h in
      let fault =
        match op with
        | Dwrite ->
          if Int64.to_int (Int64.logand h2 1L) = 0 then Enospc
          else
            (* truncate somewhere strictly inside the image: [0.1, 0.9) of
               the payload survives, so both the header and the tail are
               exercised as torn points. *)
            Short_write { frac = 0.1 +. (0.8 *. u01 (mix64 h2)) }
        | Dread ->
          let lane = Int64.to_int (Int64.shift_right_logical h2 40) in
          let bit =
            44 + Int64.to_int (Int64.rem (Int64.shift_right_logical h2 2) 19L)
          in
          Read_bit_flip { bit; lane }
      in
      Atomic.incr t.n_injected;
      (match t.obs with
      | None -> ()
      | Some o ->
        Metrics.incr o.m_injected;
        Metrics.incr o.m_disk);
      emit t "inject"
        [
          ("site", Events.fstr site);
          ("task", Events.fstr path);
          ("attempt", Events.fint attempt);
          ("kind", Events.fstr "disk");
          ("detail", Events.fstr (disk_name fault));
        ];
      Some fault
    end

let injected t = Atomic.get t.n_injected
let pivots t = Atomic.get t.n_pivots

let by_kind t =
  Array.to_list (Array.mapi (fun i k -> (k, Atomic.get t.n_by_kind.(i))) t.kinds)
