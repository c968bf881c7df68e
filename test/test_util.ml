(* Table rendering, heat-maps and the binary heap. *)
module Table = Geomix_util.Table
module Heatmap = Geomix_util.Heatmap
module Heap = Geomix_util.Heap

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_renders_all_cells () =
  let s = Table.render ~headers:[ "a"; "b" ] [ [ "1"; "2" ]; [ "33"; "444" ] ] in
  List.iter
    (fun cell -> Alcotest.(check bool) (cell ^ " present") true (contains s cell))
    [ "a"; "b"; "1"; "2"; "33"; "444" ]

let test_table_pads_short_rows () =
  let s = Table.render ~headers:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_fmt_bytes () =
  Alcotest.(check string) "gb" "1.5 GB" (Table.fmt_bytes (1.5 *. 1024. *. 1024. *. 1024.));
  Alcotest.(check string) "b" "512 B" (Table.fmt_bytes 512.)

let test_fmt_time () =
  Alcotest.(check string) "ms" "4.56 ms" (Table.fmt_time 4.56e-3);
  Alcotest.(check string) "s" "7.89 s" (Table.fmt_time 7.89);
  Alcotest.(check string) "us" "12.3 us" (Table.fmt_time 12.3e-6)

let test_fmt_flops () =
  Alcotest.(check string) "tflops" "1.23 Tflop/s" (Table.fmt_flops 1.23e12)

let test_fmt_pct () = Alcotest.(check string) "pct" "12.3%" (Table.fmt_pct 0.123)

let test_heatmap_percentages () =
  let hm = Heatmap.create ~nt:4 ~categories:[ ("x", 'x'); ("y", 'y') ] in
  let cell ~row ~col = if col > row then None else Some (if row = col then 0 else 1) in
  let s = Heatmap.render hm ~cell in
  Alcotest.(check bool) "diag fraction" true (contains s "40.0%");
  Alcotest.(check bool) "off fraction" true (contains s "60.0%")

let test_heatmap_render () =
  let hm = Heatmap.create ~nt:2 ~categories:[ ("only", 'o') ] in
  let s = Heatmap.render hm ~cell:(fun ~row ~col -> if col > row then None else Some 0) in
  Alcotest.(check bool) "legend present" true (contains s "only");
  Alcotest.(check bool) "100%" true (contains s "100.0%")

let test_heap_sorts () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some x ->
      out := x :: !out;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ] (List.rev !out)

let test_heap_peek () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check (option int)) "empty peek" None (Heap.peek h);
  Heap.push h 2;
  Heap.push h 1;
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check int) "size" 2 (Heap.size h)

let prop_heap_extracts_sorted =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (int_range (-1000) 1000))
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

let () =
  Alcotest.run "util"
    [
      ( "table",
        [
          Alcotest.test_case "renders all cells" `Quick test_table_renders_all_cells;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "fmt_bytes" `Quick test_fmt_bytes;
          Alcotest.test_case "fmt_time" `Quick test_fmt_time;
          Alcotest.test_case "fmt_flops" `Quick test_fmt_flops;
          Alcotest.test_case "fmt_pct" `Quick test_fmt_pct;
        ] );
      ( "heatmap",
        [
          Alcotest.test_case "percentages" `Quick test_heatmap_percentages;
          Alcotest.test_case "render legend" `Quick test_heatmap_render;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "peek/size" `Quick test_heap_peek;
          QCheck_alcotest.to_alcotest prop_heap_extracts_sorted;
        ] );
    ]
