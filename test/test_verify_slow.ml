(* Systematic (exhaustive) schedule exploration — out of tier-1, run with
   [dune build @verify-slow].  Where the tier-1 suite samples N seeded
   interleavings, this suite enumerates *every* linearization of small
   graphs, so a schedule-dependence bug cannot hide in an unexplored
   corner of the ready-set choice tree. *)

module Explore = Geomix_verify.Explore
module Races = Geomix_verify.Races
module Gen = Geomix_verify.Gen
module Dtd = Geomix_verify.Dtd
module Mat = Geomix_linalg.Mat
module Check = Geomix_linalg.Check
module Tiled = Geomix_tile.Tiled

let positions order =
  let pos = Array.make (Array.length order) (-1) in
  Array.iteri (fun i id -> pos.(id) <- i) order;
  pos

(* Every linearization of a random DTD program reproduces the sequential
   integer-store semantics. *)
let test_programs_schedule_independent () =
  let total = ref 0 in
  for pseed = 0 to 19 do
    (* 8 ops: even a fully independent program has 8! = 40320 schedules,
       comfortably inside the exploration limit, so [complete] must hold. *)
    let spec = { Gen.ops = 8; keys = 3; pseed } in
    let prog = Gen.program_of_spec spec in
    let ops = Array.of_list prog in
    let store = Array.make spec.Gen.keys 0 in
    let body i =
      let { Gen.reads; writes } = ops.(i) in
      let acc = List.fold_left (fun a k -> a + store.(k)) ((17 * i) + 1) reads in
      List.iter (fun k -> store.(k) <- acc + k) writes
    in
    let g = Gen.dtd_of_program ~body prog in
    let graph = Explore.of_dtd g in
    let run order =
      Array.fill store 0 spec.Gen.keys 0;
      Array.iter (Dtd.execute_task g) order;
      Array.copy store
    in
    let reference = run (Explore.sequential_schedule graph) in
    let r =
      Explore.explore_systematic ~limit:200_000 graph ~f:(fun order ->
        if run order <> reference then
          Alcotest.failf "program pseed=%d: schedule [%s] diverges from sequential" pseed
            (String.concat " " (List.map string_of_int (Array.to_list order))))
    in
    Alcotest.(check bool) (Printf.sprintf "pseed=%d fully explored" pseed) true
      r.Explore.complete;
    total := !total + r.Explore.explored
  done;
  Printf.printf "systematic: %d schedules checked across 20 programs\n%!" !total

let build_cholesky_dtd a = Dtd.cholesky ~nt:(Tiled.nt a) (Dtd.tile_kernel a)

(* Every linearization of the nt=3 tile Cholesky DTD produces a correct
   factorization.  Each schedule factorizes a fresh copy (the bodies
   mutate tiles in place), so the graph is rebuilt per schedule from the
   structural order explored on a throwaway copy. *)
let test_cholesky_all_schedules () =
  let n = 24 and nb = 8 in
  let dense =
    Mat.init ~rows:n ~cols:n (fun i j ->
      (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))
  in
  let graph = Explore.of_dtd (build_cholesky_dtd (Tiled.of_dense ~nb dense)) in
  let checked = ref 0 in
  let r =
    Explore.explore_systematic ~limit:5_000 graph ~f:(fun order ->
      let a = Tiled.of_dense ~nb dense in
      let g = build_cholesky_dtd a in
      Array.iter (Dtd.execute_task g) order;
      Tiled.iter_lower a (fun ~i ~j tile -> if i = j then Mat.zero_upper tile);
      let l = Tiled.to_dense a in
      Mat.zero_upper l;
      let res = Check.cholesky_residual ~a:dense ~l in
      if res > 1e-13 then
        Alcotest.failf "schedule [%s]: residual %.3e"
          (String.concat " " (List.map string_of_int (Array.to_list order)))
          res;
      incr checked)
  in
  Alcotest.(check bool) "all Cholesky schedules explored" true r.Explore.complete;
  Printf.printf "systematic: %d Cholesky schedules verified\n%!" !checked

(* A reported race is not just a structural possibility: systematic
   exploration of the broken DAG finds concrete schedules on both sides of
   the unordered pair, i.e. the conflicting accesses really do flip. *)
let test_dropped_edge_flips_in_some_schedule () =
  let g = Dtd.create () in
  let _w0 = Dtd.insert g ~name:"w0" ~reads:[] ~writes:[ 7 ] (fun () -> ()) in
  let r = Dtd.insert g ~name:"r" ~reads:[ 7 ] ~writes:[] (fun () -> ()) in
  let w1 = Dtd.insert g ~name:"w1" ~reads:[] ~writes:[ 7 ] (fun () -> ()) in
  let race =
    match Races.check_dtd ~drop:(r, w1) g with
    | [ race ] -> race
    | rs -> Alcotest.failf "expected one race, got %d" (List.length rs)
  in
  let successors id =
    let ss = Dtd.successors g id in
    if id = r then List.filter (fun s -> s <> w1) ss else ss
  in
  let num_tasks = Dtd.num_tasks g in
  let in_degree = Array.make num_tasks 0 in
  for id = 0 to num_tasks - 1 do
    List.iter (fun s -> in_degree.(s) <- in_degree.(s) + 1) (successors id)
  done;
  let broken = Explore.graph ~num_tasks ~in_degree ~successors in
  let forward = ref false and flipped = ref false in
  let r' =
    Explore.explore_systematic broken ~f:(fun order ->
      let pos = positions order in
      if pos.(race.Races.first) < pos.(race.Races.second) then forward := true
      else flipped := true)
  in
  Alcotest.(check bool) "explored completely" true r'.Explore.complete;
  Alcotest.(check bool) "some schedule keeps sequential order" true !forward;
  Alcotest.(check bool) "some schedule flips the racing pair" true !flipped

let () =
  Alcotest.run "verify-slow"
    [
      ( "systematic exploration",
        [
          Alcotest.test_case "programs schedule-independent" `Slow
            test_programs_schedule_independent;
          Alcotest.test_case "cholesky all schedules" `Slow test_cholesky_all_schedules;
          Alcotest.test_case "dropped edge flips" `Slow
            test_dropped_edge_flips_in_some_schedule;
        ] );
    ]
