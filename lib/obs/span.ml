(* A span is touched from worker domains (kernel read hooks, pool run
   hooks) concurrently with the request thread, so all accumulators sit
   behind one per-span mutex.  Updates are a handful of integer adds —
   microseconds of total overhead per request next to the tile kernels
   they attribute. *)

let id_counter = Atomic.make 0

type t = {
  trace_id : string;
  request_id : string;
  span_id : int;
  parent : int option;
  mutex : Mutex.t;
  mutable bytes_stc : int;
  mutable bytes_fp64 : int;
  mutable by_precision : (string * int) list;
  mutable edges : int;
  mutable tasks : int;
  mutable retries : int;
  mutable queue_s : float;
  mutable busy_s : float;
}

let make ~parent ~trace_id ~request_id =
  {
    trace_id;
    request_id;
    span_id = Atomic.fetch_and_add id_counter 1;
    parent;
    mutex = Mutex.create ();
    bytes_stc = 0;
    bytes_fp64 = 0;
    by_precision = [];
    edges = 0;
    tasks = 0;
    retries = 0;
    queue_s = 0.;
    busy_s = 0.;
  }

let create ~request_id =
  (* Process-unique, allocation-light: pid + a monotonic counter.  Trace
     ids only need to distinguish requests within one service run and be
     greppable across the JSONL stream. *)
  let trace_id =
    Printf.sprintf "t%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add id_counter 1)
  in
  make ~parent:None ~trace_id ~request_id

let child t ~request_id =
  make ~parent:(Some t.span_id) ~trace_id:t.trace_id ~request_id

let locked t f =
  Mutex.lock t.mutex;
  let r = f () in
  Mutex.unlock t.mutex;
  r

let note_transfer ?prec t ~bytes ~fp64_bytes =
  locked t (fun () ->
      t.bytes_stc <- t.bytes_stc + bytes;
      t.bytes_fp64 <- t.bytes_fp64 + fp64_bytes;
      t.edges <- t.edges + 1;
      match prec with
      | None -> ()
      | Some p ->
        t.by_precision <-
          (match List.assoc_opt p t.by_precision with
          | Some b -> (p, b + bytes) :: List.remove_assoc p t.by_precision
          | None -> (p, bytes) :: t.by_precision))

let note_task t = locked t (fun () -> t.tasks <- t.tasks + 1)
let note_retry t = locked t (fun () -> t.retries <- t.retries + 1)

let note_exec t ~queue_s ~run_s =
  locked t (fun () ->
      t.queue_s <- t.queue_s +. queue_s;
      t.busy_s <- t.busy_s +. run_s)

(* Summaries *)

type summary = {
  s_trace_id : string;
  s_request_id : string;
  s_span_id : int;
  s_parent : int option;
  s_bytes_stc : int;
  s_bytes_fp64 : int;
  s_by_precision : (string * int) list;  (* sorted by precision name *)
  s_edges : int;
  s_tasks : int;
  s_retries : int;
  s_queue_s : float;
  s_busy_s : float;
}

let summary t =
  locked t (fun () ->
      {
        s_trace_id = t.trace_id;
        s_request_id = t.request_id;
        s_span_id = t.span_id;
        s_parent = t.parent;
        s_bytes_stc = t.bytes_stc;
        s_bytes_fp64 = t.bytes_fp64;
        s_by_precision =
          List.sort (fun (a, _) (b, _) -> compare a b) t.by_precision;
        s_edges = t.edges;
        s_tasks = t.tasks;
        s_retries = t.retries;
        s_queue_s = t.queue_s;
        s_busy_s = t.busy_s;
      })

let fields t =
  [
    ("trace", Jsonlite.Str t.trace_id);
    ("request", Jsonlite.Str t.request_id);
    ("span", Jsonlite.Num (float_of_int t.span_id));
  ]

let summary_to_json (s : summary) =
  let base =
    [
      ("trace", Jsonlite.Str s.s_trace_id);
      ("request", Jsonlite.Str s.s_request_id);
      ("span", Jsonlite.Num (float_of_int s.s_span_id));
    ]
  in
  let parent =
    match s.s_parent with
    | None -> []
    | Some p -> [ ("parent", Jsonlite.Num (float_of_int p)) ]
  in
  Jsonlite.Obj
    (base @ parent
    @ [
        ("bytes_stc", Jsonlite.Num (float_of_int s.s_bytes_stc));
        ("bytes_fp64", Jsonlite.Num (float_of_int s.s_bytes_fp64));
        ( "by_precision",
          Jsonlite.Obj
            (List.map
               (fun (p, b) -> (p, Jsonlite.Num (float_of_int b)))
               s.s_by_precision) );
        ("edges", Jsonlite.Num (float_of_int s.s_edges));
        ("tasks", Jsonlite.Num (float_of_int s.s_tasks));
        ("retries", Jsonlite.Num (float_of_int s.s_retries));
        ("queue_s", Jsonlite.Num s.s_queue_s);
        ("busy_s", Jsonlite.Num s.s_busy_s);
      ])

let int_field obj name =
  match Jsonlite.member name obj with
  | Some (Jsonlite.Num x) -> Some (int_of_float x)
  | _ -> None

let num_field obj name =
  match Jsonlite.member name obj with Some (Jsonlite.Num x) -> Some x | _ -> None

let str_field obj name =
  match Jsonlite.member name obj with Some (Jsonlite.Str s) -> Some s | _ -> None

let summary_of_json j =
  let ( let* ) o f = match o with Some v -> f v | None -> Error "Span.summary_of_json: bad field" in
  match j with
  | Jsonlite.Obj _ ->
    let* trace = str_field j "trace" in
    let* request = str_field j "request" in
    let* span = int_field j "span" in
    let* bytes_stc = int_field j "bytes_stc" in
    let* bytes_fp64 = int_field j "bytes_fp64" in
    let* edges = int_field j "edges" in
    let* tasks = int_field j "tasks" in
    let* retries = int_field j "retries" in
    let* queue_s = num_field j "queue_s" in
    let* busy_s = num_field j "busy_s" in
    let by_precision =
      match Jsonlite.member "by_precision" j with
      | Some (Jsonlite.Obj kvs) ->
        List.filter_map
          (fun (k, v) ->
            match v with Jsonlite.Num x -> Some (k, int_of_float x) | _ -> None)
          kvs
      | _ -> []
    in
    Ok
      {
        s_trace_id = trace;
        s_request_id = request;
        s_span_id = span;
        s_parent = int_field j "parent";
        s_bytes_stc = bytes_stc;
        s_bytes_fp64 = bytes_fp64;
        s_by_precision = by_precision;
        s_edges = edges;
        s_tasks = tasks;
        s_retries = retries;
        s_queue_s = queue_s;
        s_busy_s = busy_s;
      }
  | _ -> Error "Span.summary_of_json: expected object"
