type event = { label : string; resource : int; start : float; stop : float; tag : string }

type t = { mutable events : event list; mutable count : int }

let create () = { events = []; count = 0 }

let add t e =
  assert (e.stop >= e.start);
  t.events <- e :: t.events;
  t.count <- t.count + 1

let events t = List.rev t.events

let of_measures measures =
  let t = create () in
  List.iter
    (fun (m : Geomix_obs.Profile.measure) ->
      add t
        { label = m.label; resource = m.worker; start = m.start; stop = m.stop; tag = m.prec })
    measures;
  t

let makespan t = List.fold_left (fun acc e -> Float.max acc e.stop) 0. t.events

let busy_time t ~resource =
  List.fold_left
    (fun acc e -> if e.resource = resource then acc +. (e.stop -. e.start) else acc)
    0. t.events

let occupancy_series t ~resources ~window =
  if not (window > 0.) then
    invalid_arg "Trace.occupancy_series: window must be positive";
  if resources <= 0 then
    invalid_arg "Trace.occupancy_series: resources must be positive";
  let horizon = makespan t in
  if horizon = 0. then [||]
  else begin
    let nwin = int_of_float (Float.ceil (horizon /. window)) in
    let busy = Array.make nwin 0. in
    List.iter
      (fun e ->
        (* Spread the event's busy time over the windows it overlaps. *)
        let w0 = int_of_float (e.start /. window) in
        let w1 = Stdlib.min (nwin - 1) (int_of_float (e.stop /. window)) in
        for w = w0 to w1 do
          let lo = Float.max e.start (float_of_int w *. window) in
          let hi = Float.min e.stop (float_of_int (w + 1) *. window) in
          if hi > lo then busy.(w) <- busy.(w) +. (hi -. lo)
        done)
      t.events;
    Array.mapi
      (fun w b ->
        (float_of_int w *. window, b /. (window *. float_of_int resources)))
      busy
  end

let utilisation t ~resources =
  let horizon = makespan t in
  if horizon = 0. then 0.
  else begin
    let busy = List.fold_left (fun acc e -> acc +. (e.stop -. e.start)) 0. t.events in
    busy /. (horizon *. float_of_int resources)
  end

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_chrome_json ?(resource_name = fun r -> Printf.sprintf "GPU %d" r) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  let resources = Hashtbl.create 8 in
  let first = ref true in
  let emit s =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf s
  in
  List.iter
    (fun e ->
      if not (Hashtbl.mem resources e.resource) then begin
        Hashtbl.add resources e.resource ();
        emit
          (Printf.sprintf
             {|{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"%s"}}|}
             e.resource
             (json_escape (resource_name e.resource)))
      end;
      emit
        (Printf.sprintf
           {|{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d,"args":{"tag":"%s"}}|}
           (json_escape e.label) (json_escape e.tag) (e.start *. 1e6)
           ((e.stop -. e.start) *. 1e6)
           e.resource (json_escape e.tag)))
    (events t);
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let gantt t ~resources ~width =
  if resources <= 0 then invalid_arg "Trace.gantt: resources must be positive";
  if width <= 0 then invalid_arg "Trace.gantt: width must be positive";
  let horizon = makespan t in
  if horizon = 0. then ""
  else begin
    (* For each cell keep the tag of the event covering most of it. *)
    let cover = Array.make_matrix resources width 0. in
    let glyph = Array.make_matrix resources width '.' in
    List.iter
      (fun e ->
        if e.resource >= 0 && e.resource < resources then begin
          let cell = horizon /. float_of_int width in
          let c0 = int_of_float (e.start /. cell) in
          let c1 = Stdlib.min (width - 1) (int_of_float (e.stop /. cell)) in
          for c = c0 to c1 do
            let lo = Float.max e.start (float_of_int c *. cell) in
            let hi = Float.min e.stop (float_of_int (c + 1) *. cell) in
            let w = hi -. lo in
            if w > cover.(e.resource).(c) then begin
              cover.(e.resource).(c) <- w;
              glyph.(e.resource).(c) <- (if e.tag = "" then '#' else e.tag.[0])
            end
          done
        end)
      t.events;
    let buf = Buffer.create (resources * (width + 16)) in
    for r = 0 to resources - 1 do
      Buffer.add_string buf (Printf.sprintf "%4d |" r);
      Array.iter (Buffer.add_char buf) glyph.(r);
      Buffer.add_string buf "|\n"
    done;
    Buffer.add_string buf
      (Printf.sprintf "      0%*s\n" width (Printf.sprintf "%.3fs" horizon));
    Buffer.contents buf
  end
