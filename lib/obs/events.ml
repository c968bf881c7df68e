type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type event = {
  seq : int;
  time : float;
  level : level;
  component : string;
  name : string;
  fields : (string * Jsonlite.t) list;
}

type t = {
  origin : float;
  mutex : Mutex.t;
  mutable next_seq : int;
  mutable last_time : float; (* clamp: per-stream timestamps never go backwards *)
  mutable sinks : (event -> unit) list; (* reverse subscription order *)
}

let create () =
  {
    origin = Unix.gettimeofday ();
    mutex = Mutex.create ();
    next_seq = 0;
    last_time = 0.;
    sinks = [];
  }

(* Sinks are only ever added, so a racy read that sees none can only miss
   an event emitted concurrently with the first subscription. *)
let enabled t (_ : level) = t.sinks <> []

let on_event t sink =
  Mutex.lock t.mutex;
  t.sinks <- sink :: t.sinks;
  Mutex.unlock t.mutex

let emit ?(level = Info) t ~component ~name fields =
  if t.sinks <> [] then begin
    Mutex.lock t.mutex;
    let now = Unix.gettimeofday () -. t.origin in
    let time = if now > t.last_time then now else t.last_time in
    t.last_time <- time;
    let e = { seq = t.next_seq; time; level; component; name; fields } in
    t.next_seq <- t.next_seq + 1;
    (* Reverse once so sinks observe subscription order. *)
    List.iter (fun sink -> sink e) (List.rev t.sinks);
    Mutex.unlock t.mutex
  end

(* Ring buffer sink *)

type ring = { capacity : int; buf : event Queue.t }

let ring ?(capacity = 4096) t =
  if capacity < 1 then invalid_arg "Events.ring";
  let r = { capacity; buf = Queue.create () } in
  (* Called under the stream lock, so the queue needs no lock of its own. *)
  on_event t (fun e ->
      Queue.push e r.buf;
      if Queue.length r.buf > r.capacity then ignore (Queue.pop r.buf));
  r

let ring_events r = List.of_seq (Queue.to_seq r.buf)

(* Serialisation *)

let to_json e =
  Jsonlite.Obj
    ([
       ("seq", Jsonlite.Num (float_of_int e.seq));
       ("t", Jsonlite.Num e.time);
       ("level", Jsonlite.Str (level_name e.level));
       ("component", Jsonlite.Str e.component);
       ("event", Jsonlite.Str e.name);
     ]
    @ e.fields)

let to_jsonl e =
  let s = Jsonlite.to_string ~indent:false (to_json e) in
  (* Compact emission has no newline to strip, but stay defensive. *)
  String.concat "" (String.split_on_char '\n' s)

let of_json j : (event, string) result =
  let header = [ "seq"; "t"; "level"; "component"; "event" ] in
  let num key : (float, string) result =
    match Option.bind (Jsonlite.member key j) Jsonlite.to_float with
    | Some x -> Ok x
    | None -> Result.Error (Printf.sprintf "missing numeric field %S" key)
  in
  let str key : (string, string) result =
    match Option.bind (Jsonlite.member key j) Jsonlite.to_str with
    | Some s -> Ok s
    | None -> Result.Error (Printf.sprintf "missing string field %S" key)
  in
  match (num "seq", num "t", str "level", str "component", str "event", j) with
  | Ok seq, Ok time, Ok lvl, Ok component, Ok name, Jsonlite.Obj all -> (
    match level_of_string lvl with
    | None -> Result.Error (Printf.sprintf "unknown level %S" lvl)
    | Some level ->
      Ok
        {
          seq = int_of_float seq;
          time;
          level;
          component;
          name;
          fields = List.filter (fun (k, _) -> not (List.mem k header)) all;
        })
  | Result.Error e, _, _, _, _, _
  | _, Result.Error e, _, _, _, _
  | _, _, Result.Error e, _, _, _
  | _, _, _, Result.Error e, _, _
  | _, _, _, _, Result.Error e, _ -> Result.Error e
  | _ -> Result.Error "event is not a JSON object"

let of_jsonl line =
  match Jsonlite.of_string line with
  | Result.Error e -> Result.Error e
  | Ok j -> of_json j

let read_jsonl ic =
  let events = ref [] and skipped = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match of_jsonl line with
         | Ok e -> events := e :: !events
         | Result.Error _ -> incr skipped
     done
   with End_of_file -> ());
  (List.rev !events, !skipped)

(* File / stderr sinks *)

let attach_jsonl t oc =
  on_event t (fun e ->
      output_string oc (to_jsonl e);
      output_char oc '\n';
      flush oc)

let pretty e =
  let fields =
    match e.fields with
    | [] -> ""
    | fs ->
      " "
      ^ String.concat " "
          (List.map
             (fun (k, v) -> k ^ "=" ^ Jsonlite.to_string ~indent:false v)
             fs)
  in
  Printf.sprintf "[%10.6f] %-5s %s.%s%s" e.time (level_name e.level) e.component
    e.name fields

let attach_stderr ?(min_level = Info) t =
  on_event t (fun e ->
      if level_rank e.level >= level_rank min_level then begin
        output_string stderr (pretty e);
        output_char stderr '\n';
        flush stderr
      end)

let env_level () =
  match Sys.getenv_opt "GEOMIX_LOG" with
  | None -> None
  | Some s -> level_of_string (String.trim s)

(* Payload helpers *)

let fint n = Jsonlite.Num (float_of_int n)
let fnum x = Jsonlite.Num x
let fstr s = Jsonlite.Str s
