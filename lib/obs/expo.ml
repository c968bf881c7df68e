(* Prometheus text exposition (version 0.0.4) of a Metrics snapshot, a
   matching parser/linter for the gate scripts, and a size-rotating JSONL
   snapshotter for continuous telemetry capture. *)

(* {1 Name and value formatting} *)

let sanitize_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
  | _ -> '_'

let sanitize name = String.map sanitize_char name

let metric_name name = "geomix_" ^ sanitize name

let fmt_value v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* {1 Exposition} *)

let add_histogram buf name (h : Metrics.hist_snapshot) =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
  (* The snapshot keeps per-bucket counts with the sub-[lo] mass in a
     separate underflow cell; Prometheus buckets are cumulative from
     -inf, so the underflow folds into every bucket and the +Inf bucket
     equals the total count. *)
  let cum = ref h.Metrics.underflow in
  Array.iter
    (fun (upper, c) ->
      cum := !cum + c;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (fmt_value upper) !cum))
    h.Metrics.buckets;
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name h.Metrics.count);
  Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" name (fmt_value h.Metrics.sum));
  Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name h.Metrics.count)

let to_prometheus (snap : Metrics.snapshot) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (raw_name, v) ->
      let name = metric_name raw_name in
      match v with
      | Metrics.Counter n ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
        Buffer.add_string buf (Printf.sprintf "%s %d\n" name n)
      | Metrics.Gauge x ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name);
        Buffer.add_string buf (Printf.sprintf "%s %s\n" name (fmt_value x))
      | Metrics.Histogram h -> add_histogram buf name h)
    snap;
  Buffer.contents buf

(* {1 Parsing} *)

type sample = { name : string; labels : (string * string) list; value : float }

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let valid_name s =
  String.length s > 0
  && is_name_start s.[0]
  && String.for_all is_name_char s

let parse_float s =
  match s with
  | "+Inf" | "Inf" -> Some Float.infinity
  | "-Inf" -> Some Float.neg_infinity
  | "NaN" -> Some Float.nan
  | _ -> float_of_string_opt s

(* One label body: comma-separated key=<quoted value> pairs; values use
   the exposition-format escapes (backslash, quote, newline). *)
let parse_labels s =
  let n = String.length s in
  let pos = ref 0 in
  let labels = ref [] in
  let ok = ref true in
  while !ok && !pos < n do
    let start = !pos in
    while !pos < n && is_name_char s.[!pos] do incr pos done;
    let key = String.sub s start (!pos - start) in
    if key = "" || !pos >= n || s.[!pos] <> '=' then ok := false
    else begin
      incr pos;
      if !pos >= n || s.[!pos] <> '"' then ok := false
      else begin
        incr pos;
        let buf = Buffer.create 16 in
        let closed = ref false in
        while (not !closed) && !pos < n do
          (match s.[!pos] with
          | '\\' when !pos + 1 < n ->
            incr pos;
            Buffer.add_char buf
              (match s.[!pos] with 'n' -> '\n' | c -> c)
          | '"' -> closed := true
          | c -> Buffer.add_char buf c);
          incr pos
        done;
        if not !closed then ok := false
        else begin
          labels := (key, Buffer.contents buf) :: !labels;
          if !pos < n && s.[!pos] = ',' then incr pos
        end
      end
    end
  done;
  if !ok then Some (List.rev !labels) else None

let parse_sample_line line =
  let line = String.trim line in
  match String.index_opt line '{' with
  | Some i -> (
    let name = String.sub line 0 i in
    match String.rindex_opt line '}' with
    | Some j when j > i -> (
      let body = String.sub line (i + 1) (j - i - 1) in
      let rest = String.trim (String.sub line (j + 1) (String.length line - j - 1)) in
      match (valid_name name, parse_labels body, parse_float rest) with
      | true, Some labels, Some value -> Ok { name; labels; value }
      | false, _, _ -> Error (Printf.sprintf "invalid metric name: %s" name)
      | _, None, _ -> Error (Printf.sprintf "invalid labels: %s" body)
      | _, _, None -> Error (Printf.sprintf "invalid value: %s" rest))
    | _ -> Error (Printf.sprintf "unclosed label set: %s" line))
  | None -> (
    match String.index_opt line ' ' with
    | None -> Error (Printf.sprintf "no value on line: %s" line)
    | Some i -> (
      let name = String.sub line 0 i in
      let rest = String.trim (String.sub line i (String.length line - i)) in
      match (valid_name name, parse_float rest) with
      | true, Some value -> Ok { name; labels = []; value }
      | false, _ -> Error (Printf.sprintf "invalid metric name: %s" name)
      | _, None -> Error (Printf.sprintf "invalid value: %s" rest)))

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let t = String.trim line in
      if t = "" || (String.length t > 0 && t.[0] = '#') then go acc rest
      else begin
        match parse_sample_line t with
        | Ok s -> go (s :: acc) rest
        | Error e -> Error e
      end
  in
  go [] lines

let find samples name = List.find_opt (fun s -> s.name = name) samples

(* {1 Linting} *)

let strip_suffix name =
  let drop suf =
    let ls = String.length suf and ln = String.length name in
    if ln > ls && String.sub name (ln - ls) ls = suf then
      Some (String.sub name 0 (ln - ls))
    else None
  in
  match drop "_bucket" with
  | Some base -> (base, `Bucket)
  | None -> (
    match drop "_sum" with
    | Some base -> (base, `Sum)
    | None -> (
      match drop "_count" with
      | Some base -> (base, `Count)
      | None -> (name, `Plain)))

let lint text =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let types = Hashtbl.create 32 in
  (* First pass: TYPE declarations and line syntax. *)
  let samples = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let t = String.trim line in
      if t = "" then ()
      else if String.length t > 0 && t.[0] = '#' then begin
        match String.split_on_char ' ' t with
        | "#" :: "TYPE" :: name :: kind :: [] ->
          if not (valid_name name) then err "line %d: invalid TYPE name %s" lineno name;
          if not (List.mem kind [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
          then err "line %d: unknown TYPE kind %s" lineno kind;
          if Hashtbl.mem types name then err "line %d: duplicate TYPE for %s" lineno name
          else Hashtbl.add types name kind
        | "#" :: "TYPE" :: _ -> err "line %d: malformed TYPE line" lineno
        | _ -> () (* HELP and free comments pass *)
      end
      else begin
        match parse_sample_line t with
        | Ok s -> samples := s :: !samples
        | Error e -> err "line %d: %s" lineno e
      end)
    (String.split_on_char '\n' text);
  let samples = List.rev !samples in
  (* Second pass: every sample is covered by a TYPE declaration, and
     histogram families are internally consistent. *)
  List.iter
    (fun s ->
      let base, suffix = strip_suffix s.name in
      let declared name = Hashtbl.find_opt types name in
      match suffix with
      | `Plain ->
        if declared s.name = None then err "sample %s has no TYPE declaration" s.name
      | `Bucket | `Sum | `Count ->
        if declared base = None && declared s.name = None then
          err "sample %s has no TYPE declaration" s.name)
    samples;
  Hashtbl.iter
    (fun name kind ->
      if kind = "histogram" then begin
        let buckets =
          List.filter (fun s -> s.name = name ^ "_bucket") samples
        in
        if buckets = [] then err "histogram %s has no buckets" name;
        let prev = ref Float.neg_infinity and prev_v = ref 0. and mono = ref true in
        let has_inf = ref false and inf_v = ref 0. in
        List.iter
          (fun s ->
            match List.assoc_opt "le" s.labels with
            | None -> err "histogram %s bucket without le label" name
            | Some le -> (
              match parse_float le with
              | None -> err "histogram %s: unparseable le %S" name le
              | Some edge ->
                if edge = Float.infinity then begin
                  has_inf := true;
                  inf_v := s.value
                end;
                if edge < !prev then err "histogram %s: le values not ascending" name;
                if s.value < !prev_v then mono := false;
                prev := edge;
                prev_v := s.value))
          buckets;
        if not !mono then err "histogram %s: bucket counts not cumulative" name;
        if not !has_inf then err "histogram %s: missing +Inf bucket" name
        else begin
          match find samples (name ^ "_count") with
          | Some c when c.value <> !inf_v ->
            err "histogram %s: _count %s <> +Inf bucket %s" name
              (fmt_value c.value) (fmt_value !inf_v)
          | Some _ -> ()
          | None -> err "histogram %s: missing _count" name
        end;
        if find samples (name ^ "_sum") = None then
          err "histogram %s: missing _sum" name
      end)
    types;
  List.rev !errors

(* {1 JSONL snapshotter} *)

type snapshotter = {
  path : string;
  max_bytes : int;
  keep : int;
  mutable oc : out_channel;
  mutable size : int;
  smutex : Mutex.t;
}

let open_append path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  (oc, out_channel_length oc)

let snapshotter ?(max_bytes = 1024 * 1024) ?(keep = 3) ~path () =
  if max_bytes <= 0 || keep < 1 then invalid_arg "Expo.snapshotter";
  let oc, size = open_append path in
  { path; max_bytes; keep; oc; size; smutex = Mutex.create () }

let rotated_path t i = Printf.sprintf "%s.%d" t.path i

let rotate_locked t =
  (* Make the full archive durable before it moves, then shift the
     retained generations with atomic renames and fsync the directory
     entry afterwards: a crash anywhere in the window leaves every
     generation either fully old or fully shifted — never a lost or torn
     archive (same idiom as {!Geomix_util.Durable.write_atomic}). *)
  flush t.oc;
  Geomix_util.Durable.fsync_fd (Unix.descr_of_out_channel t.oc);
  close_out t.oc;
  for i = t.keep - 1 downto 1 do
    let src = rotated_path t i in
    if Sys.file_exists src then Sys.rename src (rotated_path t (i + 1))
  done;
  Sys.rename t.path (rotated_path t 1);
  Geomix_util.Durable.fsync_dir (Filename.dirname t.path);
  let oc, size = open_append t.path in
  t.oc <- oc;
  t.size <- size

let snap t metrics =
  let line =
    Jsonlite.to_string ~indent:false
      (Jsonlite.Obj
         [
           ("t", Jsonlite.Num (Unix.gettimeofday ()));
           ("metrics", Metrics.to_json metrics);
         ])
  in
  Mutex.lock t.smutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.smutex)
    (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc;
      t.size <- t.size + String.length line + 1;
      if t.size > t.max_bytes then rotate_locked t)

let close t =
  Mutex.lock t.smutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.smutex)
    (fun () -> close_out t.oc)
