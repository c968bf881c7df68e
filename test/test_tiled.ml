module Mat = Geomix_linalg.Mat
module Tiled = Geomix_tile.Tiled
module Layout = Geomix_tile.Layout
module Rng = Geomix_util.Rng

let sym_random rng n =
  let m = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.gaussian rng) in
  let s = Mat.copy m in
  Mat.add_scaled s ~alpha:1. (Mat.transpose m);
  s

let test_shape () =
  let t = Tiled.create ~n:10 ~nb:4 in
  Alcotest.(check int) "nt" 3 (Tiled.nt t);
  Alcotest.(check int) "rows tile 0" 4 (Tiled.tile_rows t 0);
  Alcotest.(check int) "rows ragged" 2 (Tiled.tile_rows t 2);
  Alcotest.(check int) "tile dims" 2 (Mat.rows (Tiled.tile t 2 2));
  Alcotest.(check int) "off-diag ragged dims" 4 (Mat.cols (Tiled.tile t 2 1))

let test_roundtrip_exact_tiles () =
  let rng = Rng.create ~seed:1 in
  let d = sym_random rng 12 in
  let t = Tiled.of_dense ~nb:4 d in
  Alcotest.(check (float 0.)) "roundtrip" 0. (Mat.rel_diff (Tiled.to_dense t) ~reference:d)

let test_roundtrip_ragged () =
  let rng = Rng.create ~seed:2 in
  let d = sym_random rng 11 in
  let t = Tiled.of_dense ~nb:4 d in
  Alcotest.(check (float 0.)) "ragged roundtrip" 0.
    (Mat.rel_diff (Tiled.to_dense t) ~reference:d)

let test_init_matches_of_dense () =
  let f i j = 1. /. (1. +. float_of_int (abs (i - j))) in
  let t1 = Tiled.init ~n:9 ~nb:3 f in
  let d = Mat.init ~rows:9 ~cols:9 (fun i j -> f i j) in
  let t2 = Tiled.of_dense ~nb:3 d in
  Alcotest.(check (float 0.)) "same" 0. (Tiled.rel_diff t1 ~reference:t2)

let test_frobenius_matches_dense () =
  let rng = Rng.create ~seed:3 in
  let d = sym_random rng 13 in
  let t = Tiled.of_dense ~nb:5 d in
  Alcotest.(check (float 1e-10)) "norm" (Mat.frobenius d) (Tiled.frobenius t)

let test_tile_frobenius () =
  let t = Tiled.init ~n:4 ~nb:2 (fun i j -> if i = j then 2. else 0.) in
  Alcotest.(check (float 1e-12)) "diag tile" (sqrt 8.) (Tiled.tile_frobenius t 0 0);
  Alcotest.(check (float 1e-12)) "off tile" 0. (Tiled.tile_frobenius t 1 0)

let test_copy_independent () =
  let t = Tiled.init ~n:4 ~nb:2 (fun _ _ -> 1.) in
  let c = Tiled.copy t in
  Mat.set (Tiled.tile c 0 0) 0 0 99.;
  Alcotest.(check (float 0.)) "original" 1. (Mat.get (Tiled.tile t 0 0) 0 0)

let test_iter_lower_count () =
  let t = Tiled.create ~n:12 ~nb:3 in
  let count = ref 0 in
  Tiled.iter_lower t (fun ~i ~j _ ->
    Alcotest.(check bool) "lower" true (i >= j);
    incr count);
  Alcotest.(check int) "4·5/2 tiles" 10 !count

let test_set_tile () =
  let t = Tiled.create ~n:4 ~nb:2 in
  let m = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Tiled.set_tile t 1 0 m;
  Alcotest.(check (float 0.)) "written" 3. (Mat.get (Tiled.tile t 1 0) 1 0)

(* Layout *)

let test_squarest_grid () =
  let check n p q =
    let g = Layout.squarest_grid n in
    Alcotest.(check (pair int int)) (Printf.sprintf "grid %d" n) (p, q)
      (g.Layout.p, g.Layout.q)
  in
  check 1 1 1;
  check 6 2 3;
  check 12 3 4;
  check 16 4 4;
  check 7 1 7;
  check 384 16 24

(* Lower-triangle tile count per rank — the load-balance measure. *)
let tile_counts g ~ranks ~nt =
  let counts = Array.make ranks 0 in
  for i = 0 to nt - 1 do
    for j = 0 to i do
      let r = Layout.owner g ~i ~j in
      counts.(r) <- counts.(r) + 1
    done
  done;
  counts

let test_owner_range () =
  let g = Layout.squarest_grid 6 in
  for i = 0 to 9 do
    for j = 0 to i do
      let o = Layout.owner g ~i ~j in
      Alcotest.(check bool) "in range" true (o >= 0 && o < 6)
    done
  done

let test_local_tiles_partition () =
  let g = Layout.squarest_grid 4 in
  let nt = 7 in
  let total = Array.fold_left ( + ) 0 (tile_counts g ~ranks:4 ~nt) in
  Alcotest.(check int) "partition covers lower triangle" (nt * (nt + 1) / 2) total

let test_tile_counts_balance () =
  let g = Layout.squarest_grid 16 in
  let counts = tile_counts g ~ranks:16 ~nt:64 in
  let lo = Array.fold_left min counts.(0) counts in
  let hi = Array.fold_left max counts.(0) counts in
  (* Block-cyclic keeps the imbalance small at nt ≫ p,q. *)
  Alcotest.(check bool)
    (Printf.sprintf "balanced (%d..%d)" lo hi)
    true
    (float_of_int hi /. float_of_int lo < 1.6)

let prop_roundtrip =
  QCheck.Test.make ~name:"dense↔tiled roundtrip" ~count:60
    QCheck.(pair (int_range 1 25) (int_range 1 8))
    (fun (n, nb) ->
      let rng = Rng.create ~seed:(n + (31 * nb)) in
      let d = sym_random rng n in
      let t = Tiled.of_dense ~nb d in
      Mat.rel_diff (Tiled.to_dense t) ~reference:d = 0.)

let prop_owner_consistent =
  QCheck.Test.make ~name:"owner deterministic and in range" ~count:100
    QCheck.(triple (int_range 1 6) (int_range 1 6) (pair (int_range 0 40) (int_range 0 40)))
    (fun (p, q, (i, j)) ->
      let g = Layout.squarest_grid (p * q) in
      let o = Layout.owner g ~i ~j in
      o >= 0 && o < p * q && o = Layout.owner g ~i ~j)

let () =
  Alcotest.run "tiled"
    [
      ( "tiled",
        [
          Alcotest.test_case "shape" `Quick test_shape;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_exact_tiles;
          Alcotest.test_case "roundtrip ragged" `Quick test_roundtrip_ragged;
          Alcotest.test_case "init = of_dense" `Quick test_init_matches_of_dense;
          Alcotest.test_case "frobenius" `Quick test_frobenius_matches_dense;
          Alcotest.test_case "tile frobenius" `Quick test_tile_frobenius;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "iter lower" `Quick test_iter_lower_count;
          Alcotest.test_case "set tile" `Quick test_set_tile;
        ] );
      ( "layout",
        [
          Alcotest.test_case "squarest grid" `Quick test_squarest_grid;
          Alcotest.test_case "owner range" `Quick test_owner_range;
          Alcotest.test_case "local tiles partition" `Quick test_local_tiles_partition;
          Alcotest.test_case "block-cyclic balance" `Quick test_tile_counts_balance;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_owner_consistent ] );
    ]
