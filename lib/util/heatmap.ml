type t = { nt : int; categories : (string * char) array }

let create ~nt ~categories =
  assert (nt > 0 && categories <> []);
  { nt; categories = Array.of_list categories }

let counts t ~cell =
  let ncat = Array.length t.categories in
  let counts = Array.make ncat 0 in
  let total = ref 0 in
  for row = 0 to t.nt - 1 do
    for col = 0 to t.nt - 1 do
      match cell ~row ~col with
      | None -> ()
      | Some c ->
        assert (c >= 0 && c < ncat);
        counts.(c) <- counts.(c) + 1;
        incr total
    done
  done;
  (counts, !total)

let render t ~cell =
  let buf = Buffer.create ((t.nt + 2) * (t.nt + 2)) in
  for row = 0 to t.nt - 1 do
    Buffer.add_string buf "  ";
    for col = 0 to t.nt - 1 do
      (match cell ~row ~col with
      | None -> Buffer.add_char buf '.'
      | Some c -> Buffer.add_char buf (snd t.categories.(c)));
      Buffer.add_char buf ' '
    done;
    Buffer.add_char buf '\n'
  done;
  let counts, total = counts t ~cell in
  let denom = Stdlib.max total 1 in
  Buffer.add_string buf "  legend:";
  Array.iteri
    (fun i (name, ch) ->
      Buffer.add_string buf
        (Printf.sprintf "  %c=%s (%.1f%%)" ch name
           (100. *. float_of_int counts.(i) /. float_of_int denom)))
    t.categories;
  Buffer.add_char buf '\n';
  Buffer.contents buf
