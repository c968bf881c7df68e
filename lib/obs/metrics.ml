(* Metric cells are updated concurrently by pool workers: counters are
   atomics, gauges and histograms take a per-cell mutex (observations are
   tens of nanoseconds of work; contention is negligible next to the task
   bodies they measure). *)

type counter = { cell : int Atomic.t }

type gauge = { mutable gvalue : float; gmutex : Mutex.t }

type histogram = {
  lo : float; (* lower bound of the first bucket *)
  edges : float array; (* upper bound of each log-spaced bucket, ascending *)
  counts : int array;
  mutable underflow : int; (* values below the first bucket's lower bound *)
  mutable overflow : int; (* values at or above the last upper bound *)
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
  hmutex : Mutex.t;
}

type metric = C of counter | G of gauge | H of histogram

type t = { table : (string, metric) Hashtbl.t; rmutex : Mutex.t; events : Events.t }

let create () =
  { table = Hashtbl.create 32; rmutex = Mutex.create (); events = Events.create () }

let events t = t.events

let with_registry t f =
  Mutex.lock t.rmutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.rmutex) f

let register t name make select =
  with_registry t (fun () ->
      match Hashtbl.find_opt t.table name with
      | Some m -> (
        match select m with
        | Some cell -> cell
        | None -> invalid_arg (Printf.sprintf "Metrics: %S registered with another kind" name))
      | None ->
        let cell = make () in
        Hashtbl.add t.table name cell;
        match select cell with Some c -> c | None -> assert false)

let counter t name =
  register t name
    (fun () -> C { cell = Atomic.make 0 })
    (function C c -> Some c | _ -> None)

let gauge t name =
  register t name
    (fun () -> G { gvalue = 0.; gmutex = Mutex.create () })
    (function G g -> Some g | _ -> None)

let default_lo = 1e-6 (* 1 µs: queue waits and task bodies both land mid-range *)
let default_decades = 12
let default_per_decade = 4

let histogram ?(lo = default_lo) ?(decades = default_decades)
    ?(per_decade = default_per_decade) t name =
  if lo <= 0. || decades < 1 || per_decade < 1 then invalid_arg "Metrics.histogram";
  register t name
    (fun () ->
      let n = decades * per_decade in
      let edges =
        Array.init n (fun i -> lo *. (10. ** (float_of_int (i + 1) /. float_of_int per_decade)))
      in
      H
        {
          lo;
          edges;
          counts = Array.make n 0;
          underflow = 0;
          overflow = 0;
          hcount = 0;
          hsum = 0.;
          hmin = Float.infinity;
          hmax = Float.neg_infinity;
          hmutex = Mutex.create ();
        })
    (function H h -> Some h | _ -> None)

(* Counters *)

let incr c = Atomic.incr c.cell

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotonic";
  ignore (Atomic.fetch_and_add c.cell n)

let counter_value c = Atomic.get c.cell

(* Gauges *)

let set g v =
  Mutex.lock g.gmutex;
  g.gvalue <- v;
  Mutex.unlock g.gmutex

let set_max g v =
  Mutex.lock g.gmutex;
  if v > g.gvalue then g.gvalue <- v;
  Mutex.unlock g.gmutex

let gauge_value g =
  Mutex.lock g.gmutex;
  let v = g.gvalue in
  Mutex.unlock g.gmutex;
  v

(* Histograms *)

let bucket_index h v =
  (* First bucket whose upper bound exceeds v; edges are few (≤ ~64), and a
     binary search keeps boundary behaviour exact. *)
  let n = Array.length h.edges in
  if v < h.lo then `Underflow
  else if v >= h.edges.(n - 1) then `Overflow
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v < h.edges.(mid) then hi := mid else lo := mid + 1
    done;
    `Bucket !lo
  end

let observe h v =
  Mutex.lock h.hmutex;
  (match bucket_index h v with
  | `Underflow -> h.underflow <- h.underflow + 1
  | `Overflow -> h.overflow <- h.overflow + 1
  | `Bucket i -> h.counts.(i) <- h.counts.(i) + 1);
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v;
  Mutex.unlock h.hmutex

let time h f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe h (Unix.gettimeofday () -. t0)) f

(* Snapshots *)

type hist_snapshot = {
  lo : float;
  buckets : (float * int) array;
  underflow : int;
  overflow : int;
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
}

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

type snapshot = (string * value) list

let snapshot_metric = function
  | C c -> Counter (Atomic.get c.cell)
  | G g -> Gauge (gauge_value g)
  | H h ->
    Mutex.lock h.hmutex;
    let s =
      Histogram
        {
          lo = h.lo;
          buckets = Array.mapi (fun i e -> (e, h.counts.(i))) h.edges;
          underflow = h.underflow;
          overflow = h.overflow;
          count = h.hcount;
          sum = h.hsum;
          min_v = h.hmin;
          max_v = h.hmax;
        }
    in
    Mutex.unlock h.hmutex;
    s

let snapshot t =
  let items =
    with_registry t (fun () ->
        Hashtbl.fold (fun name m acc -> (name, snapshot_metric m) :: acc) t.table [])
  in
  List.sort (fun (a, _) (b, _) -> compare a b) items

let find snap name = List.assoc_opt name snap

(* [diff after before]: what happened between the two snapshots.  Counters
   and histogram populations subtract; gauges are instantaneous so the
   [after] value stands; histogram min/max cannot be recovered for the
   window alone, so they also carry the [after] values (documented). *)
let diff after before =
  List.map
    (fun (name, a) ->
      match (a, find before name) with
      | Counter x, Some (Counter y) -> (name, Counter (x - y))
      | Histogram x, Some (Histogram y) when Array.length x.buckets = Array.length y.buckets
        ->
        ( name,
          Histogram
            {
              x with
              buckets = Array.mapi (fun i (e, c) -> (e, c - snd y.buckets.(i))) x.buckets;
              underflow = x.underflow - y.underflow;
              overflow = x.overflow - y.overflow;
              count = x.count - y.count;
              sum = x.sum -. y.sum;
            } )
      | _, _ -> (name, a))
    after

let mean (h : hist_snapshot) = if h.count = 0 then Float.nan else h.sum /. float_of_int h.count

let quantile (h : hist_snapshot) q =
  if q < 0. || q > 1. then invalid_arg "Metrics.quantile";
  if h.count = 0 then Float.nan
  else begin
    let target = q *. float_of_int h.count in
    let seen = ref (float_of_int h.underflow) in
    if !seen >= target && h.underflow > 0 then
      (* Below the instrumented range (zeros land here): report 0. *)
      0.
    else begin
      let result = ref Float.nan in
      let n = Array.length h.buckets in
      (try
         for i = 0 to n - 1 do
           let upper, c = h.buckets.(i) in
           if c > 0 then begin
             let next = !seen +. float_of_int c in
             if next >= target then begin
               let lower = if i = 0 then h.lo else fst h.buckets.(i - 1) in
               let frac = (target -. !seen) /. float_of_int c in
               result := lower +. (frac *. (upper -. lower));
               raise Exit
             end;
             seen := next
           end
         done;
         (* Remaining mass is overflow: report the instrumented ceiling. *)
         result := fst h.buckets.(n - 1)
       with Exit -> ());
      !result
    end
  end

(* Exporters *)

let kind_of = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let fmt = Geomix_util.Table.fmt_float ~digits:4

let to_table snap =
  let rows =
    List.map
      (fun (name, v) ->
        match v with
        | Counter n -> [ name; "counter"; string_of_int n; ""; ""; ""; "" ]
        | Gauge x -> [ name; "gauge"; fmt x; ""; ""; ""; "" ]
        | Histogram h ->
          [
            name;
            "histogram";
            string_of_int h.count;
            (if h.count = 0 then "" else fmt (mean h));
            (if h.count = 0 then "" else fmt (quantile h 0.5));
            (if h.count = 0 then "" else fmt (quantile h 0.99));
            (if h.count = 0 then "" else fmt h.max_v);
          ])
      snap
  in
  Geomix_util.Table.render
    ~align:[ Geomix_util.Table.Left; Geomix_util.Table.Left ]
    ~headers:[ "metric"; "kind"; "count/value"; "mean"; "p50"; "p99"; "max" ]
    rows

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv snap =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "metric,kind,count,value,sum,mean,p50,p99,min,max\n";
  List.iter
    (fun (name, v) ->
      let cells =
        match v with
        | Counter n -> [ string_of_int n; string_of_int n; ""; ""; ""; ""; ""; "" ]
        | Gauge x -> [ ""; fmt x; ""; ""; ""; ""; ""; "" ]
        | Histogram h ->
          if h.count = 0 then [ "0"; ""; "0"; ""; ""; ""; ""; "" ]
          else
            [
              string_of_int h.count;
              "";
              fmt h.sum;
              fmt (mean h);
              fmt (quantile h 0.5);
              fmt (quantile h 0.99);
              fmt h.min_v;
              fmt h.max_v;
            ]
      in
      Buffer.add_string buf
        (String.concat "," (csv_escape name :: csv_escape (kind_of v) :: cells));
      Buffer.add_char buf '\n')
    snap;
  Buffer.contents buf

let value_to_json = function
  | Counter n -> Jsonlite.Obj [ ("kind", Jsonlite.Str "counter"); ("value", Jsonlite.Num (float_of_int n)) ]
  | Gauge x -> Jsonlite.Obj [ ("kind", Jsonlite.Str "gauge"); ("value", Jsonlite.Num x) ]
  | Histogram h ->
    Jsonlite.Obj
      [
        ("kind", Jsonlite.Str "histogram");
        ("lo", Jsonlite.Num h.lo);
        ("count", Jsonlite.Num (float_of_int h.count));
        ("sum", Jsonlite.Num h.sum);
        ("min", Jsonlite.Num (if h.count = 0 then Float.nan else h.min_v));
        ("max", Jsonlite.Num (if h.count = 0 then Float.nan else h.max_v));
        ("underflow", Jsonlite.Num (float_of_int h.underflow));
        ("overflow", Jsonlite.Num (float_of_int h.overflow));
        ( "buckets",
          Jsonlite.Arr
            (Array.to_list
               (Array.map
                  (fun (upper, c) ->
                    Jsonlite.Obj
                      [ ("le", Jsonlite.Num upper); ("count", Jsonlite.Num (float_of_int c)) ])
                  h.buckets)) );
      ]

let to_json snap = Jsonlite.Obj (List.map (fun (name, v) -> (name, value_to_json v)) snap)

let to_json_string snap = Jsonlite.to_string (to_json snap)

(* Decoder — the inverse of [value_to_json], used by [geomix top] to
   reconstruct snapshots from a stats reply.  NaN min/max emit as [null],
   so an empty histogram decodes back to the canonical ±inf extrema. *)

let value_of_json j =
  let num name =
    match Jsonlite.member name j with
    | Some (Jsonlite.Num x) -> Some x
    | _ -> None
  in
  match Jsonlite.member "kind" j with
  | Some (Jsonlite.Str "counter") -> (
    match num "value" with
    | Some v -> Ok (Counter (int_of_float v))
    | None -> Error "counter without numeric value")
  | Some (Jsonlite.Str "gauge") -> (
    match num "value" with
    | Some v -> Ok (Gauge v)
    | None -> Error "gauge without numeric value")
  | Some (Jsonlite.Str "histogram") -> (
    let buckets =
      match Jsonlite.member "buckets" j with
      | Some (Jsonlite.Arr bs) ->
        let decoded =
          List.filter_map
            (fun b ->
              match (Jsonlite.member "le" b, Jsonlite.member "count" b) with
              | Some (Jsonlite.Num le), Some (Jsonlite.Num c) ->
                Some (le, int_of_float c)
              | _ -> None)
            bs
        in
        if List.length decoded = List.length bs then Some (Array.of_list decoded)
        else None
      | _ -> None
    in
    match (num "lo", buckets, num "count", num "sum", num "underflow", num "overflow")
    with
    | Some lo, Some buckets, Some count, Some sum, Some underflow, Some overflow ->
      let count = int_of_float count in
      let extremum name default =
        match num name with Some v -> v | None -> if count = 0 then default else 0.
      in
      Ok
        (Histogram
           {
             lo;
             buckets;
             underflow = int_of_float underflow;
             overflow = int_of_float overflow;
             count;
             sum;
             min_v = extremum "min" Float.infinity;
             max_v = extremum "max" Float.neg_infinity;
           })
    | _ -> Error "histogram with missing fields")
  | _ -> Error "metric value without a known kind"

let of_json = function
  | Jsonlite.Obj kvs ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (name, v) :: rest -> (
        match value_of_json v with
        | Ok value -> go ((name, value) :: acc) rest
        | Error e -> Error (Printf.sprintf "%s: %s" name e))
    in
    go [] kvs
  | _ -> Error "Metrics.of_json: expected object"
