type block =
  | Para of string
  | Table of { headers : string list; rows : string list list }
  | Code of string

type section = {
  stitle : string;
  mutable blocks : block list; (* reverse order *)
  mutable data : (string * Jsonlite.t) list; (* reverse order, last wins *)
}

type t = { title : string; mutable sections : section list (* reverse order *) }

let create ~title = { title; sections = [] }

let section t stitle = t.sections <- { stitle; blocks = []; data = [] } :: t.sections

let current t =
  match t.sections with
  | s :: _ -> s
  | [] ->
    (* Implicit preamble for content added before any section. *)
    let s = { stitle = ""; blocks = []; data = [] } in
    t.sections <- [ s ];
    s

let para t text = (current t).blocks <- Para text :: (current t).blocks

let table t ~headers rows =
  let s = current t in
  s.blocks <- Table { headers; rows } :: s.blocks

let code t text =
  let s = current t in
  s.blocks <- Code text :: s.blocks

let attach t ~key v =
  let s = current t in
  s.data <- (key, v) :: s.data

(* Markdown rendering *)

let escape_cell s =
  (* Pipes break GFM table cells; newlines break rows. *)
  String.concat "\\|" (String.split_on_char '|' s)
  |> String.split_on_char '\n'
  |> String.concat " "

let render_table buf headers rows =
  let width = List.length headers in
  let pad row =
    let n = List.length row in
    if n >= width then row else row @ List.init (width - n) (fun _ -> "")
  in
  let line cells =
    Buffer.add_string buf "| ";
    Buffer.add_string buf (String.concat " | " (List.map escape_cell cells));
    Buffer.add_string buf " |\n"
  in
  line headers;
  line (List.map (fun _ -> "---") headers);
  List.iter (fun row -> line (pad row)) rows

let render_block buf = function
  | Para text ->
    Buffer.add_string buf text;
    Buffer.add_string buf "\n\n"
  | Table { headers; rows } ->
    render_table buf headers rows;
    Buffer.add_char buf '\n'
  | Code text ->
    Buffer.add_string buf "```\n";
    Buffer.add_string buf text;
    if text <> "" && text.[String.length text - 1] <> '\n' then
      Buffer.add_char buf '\n';
    Buffer.add_string buf "```\n\n"

let section_body s =
  let buf = Buffer.create 512 in
  List.iter (render_block buf) (List.rev s.blocks);
  Buffer.contents buf

let to_markdown t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf ("# " ^ t.title ^ "\n\n");
  List.iter
    (fun s ->
      if s.stitle <> "" then Buffer.add_string buf ("## " ^ s.stitle ^ "\n\n");
      Buffer.add_string buf (section_body s))
    (List.rev t.sections);
  Buffer.contents buf

let to_json t =
  let dedup kvs =
    (* Reverse order with last write first: keep the first occurrence. *)
    let seen = Hashtbl.create 8 in
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      kvs
  in
  Jsonlite.Obj
    [
      ("title", Jsonlite.Str t.title);
      ( "sections",
        Jsonlite.Arr
          (List.rev_map
             (fun s ->
               Jsonlite.Obj
                 [
                   ("title", Jsonlite.Str s.stitle);
                   ("text", Jsonlite.Str (section_body s));
                   ("data", Jsonlite.Obj (List.rev (dedup s.data)));
                 ])
             t.sections) );
    ]
