module Explore = Geomix_verify.Explore
module Races = Geomix_verify.Races
module Gen = Geomix_verify.Gen
module Oracle = Geomix_verify.Oracle
module Dtd = Geomix_verify.Dtd
module Dag_exec = Geomix_parallel.Dag_exec
module Fp = Geomix_precision.Fpformat
module Pm = Geomix_core.Precision_map
module Cm = Geomix_core.Comm_map
module Trace = Geomix_runtime.Trace
module Task = Geomix_runtime.Task
module Cdag = Geomix_runtime.Cholesky_dag

(* Every property suite runs under this fixed QCheck state: the whole file
   is deterministic run to run (generator specs carry their own Rng seeds
   on top, so counterexamples replay from their printed spec alone). *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0FFEE |]) t

(* 0 → {1, 2} → 3 *)
let diamond =
  Explore.graph ~num_tasks:4
    ~in_degree:[| 0; 1; 1; 2 |]
    ~successors:(function 0 -> [ 1; 2 ] | 3 -> [] | _ -> [ 3 ])

let independent n =
  Explore.graph ~num_tasks:n ~in_degree:(Array.make n 0) ~successors:(fun _ -> [])

let chain n =
  Explore.graph ~num_tasks:n
    ~in_degree:(Array.init n (fun i -> if i = 0 then 0 else 1))
    ~successors:(fun id -> if id + 1 < n then [ id + 1 ] else [])

let positions order =
  let pos = Array.make (Array.length order) (-1) in
  Array.iteri (fun i id -> pos.(id) <- i) order;
  pos

(* The graph of a DTD program with one derived edge removed — what the
   race checker's witness schedules must be validated against. *)
let broken_graph g ~drop:(src, dst) =
  let successors id =
    let ss = Dtd.successors g id in
    if id = src then List.filter (fun s -> s <> dst) ss else ss
  in
  let num_tasks = Dtd.num_tasks g in
  let in_degree = Array.make num_tasks 0 in
  for id = 0 to num_tasks - 1 do
    List.iter (fun s -> in_degree.(s) <- in_degree.(s) + 1) (successors id)
  done;
  Explore.graph ~num_tasks ~in_degree ~successors

(* --- schedule explorer ------------------------------------------------ *)

let test_random_schedules_topological_and_diverse () =
  let saw_12 = ref false and saw_21 = ref false in
  Explore.for_each_seed ~seeds:20 diamond (fun ~seed:_ order ->
    let pos = positions order in
    if pos.(1) < pos.(2) then saw_12 := true else saw_21 := true);
  Alcotest.(check bool) "both middle orders explored" true (!saw_12 && !saw_21)

let test_replay_from_seed () =
  let g = Gen.dag_of_spec { Gen.tasks = 25; density = 0.3; seed = 11 } in
  Alcotest.(check (array int)) "same seed, same schedule"
    (Explore.random_schedule g ~seed:3)
    (Explore.random_schedule g ~seed:3);
  Alcotest.(check bool) "topological" true
    (Explore.is_topological g (Explore.random_schedule g ~seed:3))

let test_sequential_schedule_is_insertion_order () =
  let g = Gen.dtd_of_program (Gen.program_of_spec { Gen.ops = 30; keys = 4; pseed = 5 }) in
  let graph = Explore.of_dtd g in
  Alcotest.(check (array int)) "insertion order"
    (Array.init 30 Fun.id)
    (Explore.sequential_schedule graph)

let test_systematic_counts () =
  let count g =
    let r = Explore.explore_systematic g ~f:(fun o -> assert (Explore.is_topological g o)) in
    Alcotest.(check bool) "complete" true r.Explore.complete;
    r.Explore.explored
  in
  Alcotest.(check int) "diamond has 2 linearizations" 2 (count diamond);
  Alcotest.(check int) "4 independent tasks: 4!" 24 (count (independent 4));
  Alcotest.(check int) "chain of 5: single order" 1 (count (chain 5))

let test_systematic_limit () =
  let r = Explore.explore_systematic ~limit:10 (independent 6) ~f:(fun _ -> ()) in
  Alcotest.(check int) "truncated at limit" 10 r.Explore.explored;
  Alcotest.(check bool) "reported incomplete" false r.Explore.complete

let test_run_schedule_rejects_invalid () =
  Alcotest.check_raises "non-topological order rejected"
    (Invalid_argument "Explore.run_schedule: order is not a topological order")
    (fun () -> Explore.run_schedule diamond ~order:[| 3; 0; 1; 2 |] ~execute:(fun _ -> ()))

let prop_random_schedule_topological =
  QCheck.Test.make ~name:"random schedules are topological orders" ~count:200
    (QCheck.pair (Gen.dag_spec ~max_tasks:40 ()) (QCheck.int_range 0 1000))
    (fun (spec, seed) ->
      let g = Gen.dag_of_spec spec in
      Explore.is_topological g (Explore.random_schedule g ~seed))

(* --- race checker ----------------------------------------------------- *)

(* The decisive seeded-bug test: a WAR dependency the runtime derived is
   deliberately dropped; the checker must report exactly that pair, with a
   witness interleaving of the broken DAG that runs the writer before the
   reader. *)
let test_seeded_bug_detected () =
  let g = Dtd.create () in
  let _w0 = Dtd.insert g ~name:"w0" ~reads:[] ~writes:[ 7 ] (fun () -> ()) in
  let r = Dtd.insert g ~name:"r" ~reads:[ 7 ] ~writes:[] (fun () -> ()) in
  let w1 = Dtd.insert g ~name:"w1" ~reads:[] ~writes:[ 7 ] (fun () -> ()) in
  Alcotest.(check int) "intact graph is race-free" 0 (List.length (Races.check_dtd g));
  match Races.check_dtd ~drop:(r, w1) g with
  | [ race ] ->
    Alcotest.(check int) "reader is first" r race.Races.first;
    Alcotest.(check int) "writer is second" w1 race.Races.second;
    Alcotest.(check int) "conflicting datum" 7 race.Races.key;
    Alcotest.(check string) "kind" "WAR" (Races.kind_name race.Races.kind);
    let broken = broken_graph g ~drop:(r, w1) in
    Alcotest.(check bool) "witness is a schedule of the broken DAG" true
      (Explore.is_topological broken race.Races.witness);
    let pos = positions race.Races.witness in
    Alcotest.(check bool) "witness runs w1 before r" true (pos.(w1) < pos.(r))
  | rs -> Alcotest.failf "expected exactly one race, got %d" (List.length rs)

(* Same discipline on the real workload shape: drop the RAW edge
   TRSM(1,0) → SYRK(1,0) from a tile-Cholesky DTD program. *)
let test_seeded_bug_cholesky_shaped () =
  let g = Dtd.cholesky ~nt:3 ignore in
  let id kind =
    let name = Task.name kind in
    List.find (fun i -> Dtd.name g i = name) (List.init (Dtd.num_tasks g) Fun.id)
  in
  Alcotest.(check int) "intact Cholesky DTD is race-free" 0
    (List.length (Races.check_dtd g));
  let trsm10 = id (Task.Trsm (1, 0)) and syrk10 = id (Task.Syrk (1, 0)) in
  match Races.check_dtd ~drop:(trsm10, syrk10) g with
  | [ race ] ->
    Alcotest.(check int) "TRSM(1,0)" trsm10 race.Races.first;
    Alcotest.(check int) "SYRK(1,0)" syrk10 race.Races.second;
    Alcotest.(check string) "RAW" "RAW" (Races.kind_name race.Races.kind);
    let pos = positions race.Races.witness in
    Alcotest.(check bool) "witness flips the pair" true (pos.(syrk10) < pos.(trsm10))
  | rs ->
    Alcotest.failf "expected exactly the TRSM→SYRK race, got %d: %s" (List.length rs)
      (String.concat "; " (List.map (Races.to_string ~name:(Dtd.name g)) rs))

let prop_dtd_derivation_race_free =
  QCheck.Test.make ~name:"DTD-derived DAGs cover every conflicting pair" ~count:200
    (Gen.program_spec ~max_ops:40 ~max_keys:8 ())
    (fun spec -> Races.check_dtd (Gen.dtd_of_program (Gen.program_of_spec spec)) = [])

(* Reachability over a successor function, for cross-checking witnesses. *)
let reaches ~successors a b =
  let seen = Hashtbl.create 16 in
  let rec go id =
    id = b
    || List.exists
         (fun s ->
           (not (Hashtbl.mem seen s))
           && begin
                Hashtbl.add seen s ();
                go s
              end)
         (successors id)
  in
  go a

(* The DAG the factorization runs: Cholesky_dag's analytic edges must order
   every pair of tasks whose footprints (Task.read_tiles / write_tile)
   conflict.  Every edge carries a conflict, so dropping one that no other
   path covers must leave exactly its own pair among the races. *)
let test_cholesky_dag_race_free () =
  let reaches_without ~successors ~src ~dst =
    reaches ~successors:(fun id ->
        let ss = successors id in
        if id = src then List.filter (( <> ) dst) ss else ss)
      src dst
  in
  for nt = 1 to 8 do
    let dag = Cdag.create ~nt in
    let key (i, j) = (i * nt) + j in
    let footprint id =
      let kind = Cdag.kind_of dag id in
      (List.map key (Task.read_tiles kind), [ key (Task.write_tile kind) ])
    in
    let check ?drop () =
      let successors id =
        let ss = Cdag.successors dag id in
        match drop with
        | Some (src, dst) when id = src -> List.filter (( <> ) dst) ss
        | _ -> ss
      in
      Races.check ~num_tasks:(Cdag.num_tasks dag) ~footprint ~successors
    in
    Alcotest.(check int) (Printf.sprintf "nt=%d race-free" nt) 0 (List.length (check ()));
    if nt <= 5 then
      for src = 0 to Cdag.num_tasks dag - 1 do
        List.iter
          (fun dst ->
            let races = check ~drop:(src, dst) () in
            let label =
              Printf.sprintf "nt=%d drop %s -> %s" nt
                (Task.name (Cdag.kind_of dag src))
                (Task.name (Cdag.kind_of dag dst))
            in
            if reaches_without ~successors:(Cdag.successors dag) ~src ~dst then
              Alcotest.(check int) (label ^ ": covered by another path") 0 (List.length races)
            else
              Alcotest.(check bool) (label ^ ": caught") true
                (List.exists
                   (fun r -> (r.Races.first, r.Races.second) = (min src dst, max src dst))
                   races))
          (Cdag.successors dag src)
      done
  done

let prop_dropped_edge_races_are_real =
  QCheck.Test.make ~name:"every race reported for a broken DAG is real" ~count:100
    (Gen.program_spec ~max_ops:20 ~max_keys:4 ())
    (fun spec ->
      let g = Gen.dtd_of_program (Gen.program_of_spec spec) in
      (* Drop the first derived edge, if any. *)
      let rec first_edge i =
        if i >= Dtd.num_tasks g then None
        else match Dtd.successors g i with [] -> first_edge (i + 1) | s :: _ -> Some (i, s)
      in
      match first_edge 0 with
      | None -> true
      | Some (src, dst) ->
        let broken = broken_graph g ~drop:(src, dst) in
        let races = Races.check_dtd ~drop:(src, dst) g in
        let race_real r =
          let ra, wa = Dtd.footprint g r.Races.first in
          let rb, wb = Dtd.footprint g r.Races.second in
          let conflicting =
            List.exists (fun k -> List.mem k rb || List.mem k wb) wa
            || List.exists (fun k -> List.mem k wb) ra
          in
          let unordered =
            (not (reaches ~successors:broken.Explore.successors r.Races.first r.Races.second))
            && not (reaches ~successors:broken.Explore.successors r.Races.second r.Races.first)
          in
          let pos = positions r.Races.witness in
          conflicting && unordered
          && Explore.is_topological broken r.Races.witness
          && pos.(r.Races.second) < pos.(r.Races.first)
        in
        let dropped_pair_covered =
          (* If (src, dst) itself conflicts and has no alternate path, it
             must be among the reported races. *)
          let _, wsrc = Dtd.footprint g src in
          let rdst, wdst = Dtd.footprint g dst in
          let conflicting =
            List.exists (fun k -> List.mem k rdst || List.mem k wdst) wsrc
            || List.exists
                 (fun k -> List.mem k wdst)
                 (fst (Dtd.footprint g src))
          in
          (not conflicting)
          || reaches ~successors:broken.Explore.successors src dst
          || List.exists (fun r -> r.Races.first = src && r.Races.second = dst) races
        in
        List.for_all race_real races && dropped_pair_covered)

(* --- explorer × DTD: schedule-independence of sequential semantics ----- *)

let prop_all_schedules_match_sequential =
  QCheck.Test.make ~name:"every explored schedule reproduces sequential semantics"
    ~count:100
    (Gen.program_spec ~max_ops:25 ~max_keys:5 ())
    (fun spec ->
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
      let ok = ref true in
      Explore.for_each_seed ~seeds:5 graph (fun ~seed:_ order ->
        if run order <> reference then ok := false);
      !ok)

(* --- Fpformat properties ---------------------------------------------- *)

(* Floats by sign/exponent/mantissa so that every format's normal and
   subnormal ranges (and overflow) are all actually exercised — a uniform
   range generator would put essentially every sample beyond FP16. *)
let float_gen =
  QCheck.make ~print:string_of_float
    QCheck.Gen.(
      triple (int_range (-140) 140) (float_bound_inclusive 1.) bool
      >|= fun (e, m, neg) ->
      let x = Float.ldexp (1. +. m) e in
      if neg then -.x else x)

let prop_refining_roundtrip_exact =
  QCheck.Test.make ~name:"down-then-up never gains bits (refining round-trip exact)"
    ~count:2000
    (QCheck.triple Gen.scalar Gen.scalar float_gen)
    (fun (s, t, x) ->
      (not (Fp.refines t s))
      ||
      let down = Fp.round s x in
      (Float.is_nan down && Float.is_nan x) || Fp.round t down = down)

let prop_down_up_down_stable =
  QCheck.Test.make ~name:"down-up-down through a refining format is the identity"
    ~count:2000
    (QCheck.triple Gen.scalar Gen.scalar float_gen)
    (fun (s, t, x) ->
      (not (Fp.refines t s))
      ||
      let down = Fp.round s x in
      (Float.is_nan down && Float.is_nan x) || Fp.round s (Fp.round t down) = down)

let prop_fp64_roundtrip_exact =
  QCheck.Test.make ~name:"Fp64 round-trip exact" ~count:1000 float_gen (fun x ->
    Fp.round Fp.S_fp64 x = x)

let prop_refines_consistent_with_rank =
  QCheck.Test.make ~name:"refines ⊆ scalar_rank order; fp16/bf16 incomparable"
    ~count:200
    (QCheck.pair Gen.scalar Gen.scalar)
    (fun (s, t) ->
      (* Refinement implies rank order except on the incomparable pair. *)
      (not (Fp.refines t s)) || s = t || Fp.scalar_rank t > Fp.scalar_rank s)

(* --- Comm_map: STC ⇔ strictly-lower successors, vs brute-force oracle -- *)

let prop_comm_map_matches_oracle =
  QCheck.Test.make ~name:"Comm_map.compute = brute-force Algorithm 2" ~count:200
    (Gen.pmap_spec ~max_nt:12 ())
    (fun spec -> Oracle.comm_map_agrees (Gen.pmap_of_spec spec))

let prop_stc_iff_strictly_below_storage =
  QCheck.Test.make ~name:"STC ⇔ comm strictly below storage" ~count:200
    (Gen.pmap_spec ~max_nt:12 ())
    (fun spec ->
      let pmap = Gen.pmap_of_spec spec in
      let cm = Cm.compute pmap in
      let ok = ref true in
      for i = 0 to Pm.nt pmap - 1 do
        for j = 0 to i do
          let stc = Cm.strategy cm i j = Cm.Stc in
          let below =
            Fp.scalar_rank (Cm.comm_scalar cm i j) < Fp.scalar_rank (Pm.storage pmap i j)
          in
          if stc <> below then ok := false
        done
      done;
      !ok)

let prop_comm_map_deterministic =
  QCheck.Test.make ~name:"Comm_map.compute is deterministic" ~count:100
    (Gen.pmap_spec ~max_nt:10 ())
    (fun spec ->
      let pmap = Gen.pmap_of_spec spec in
      Cm.equal (Cm.compute pmap) (Cm.compute pmap))

(* --- Trace invariants -------------------------------------------------- *)

let prop_trace_utilisation_bounded =
  QCheck.Test.make ~name:"utilisation ∈ [0, 1]" ~count:200
    (Gen.trace_spec ~max_resources:4 ~max_events:8 ())
    (fun spec ->
      let t = Gen.trace_of_spec spec in
      let u = Trace.utilisation t ~resources:spec.Gen.resources in
      u >= 0. && u <= 1.)

let prop_trace_makespan_dominates_busy =
  QCheck.Test.make ~name:"makespan ≥ busy_time per resource" ~count:200
    (Gen.trace_spec ~max_resources:4 ~max_events:8 ())
    (fun spec ->
      let t = Gen.trace_of_spec spec in
      let span = Trace.makespan t in
      let ok = ref true in
      for r = 0 to spec.Gen.resources - 1 do
        if Trace.busy_time t ~resource:r > span +. 1e-12 then ok := false
      done;
      !ok)

let prop_trace_occupancy_bounded =
  QCheck.Test.make ~name:"occupancy_series values ∈ [0, 1]" ~count:200
    (QCheck.pair (Gen.trace_spec ~max_resources:4 ~max_events:8 ()) (QCheck.int_range 1 20))
    (fun (spec, w) ->
      let t = Gen.trace_of_spec spec in
      let window = float_of_int w /. 10. in
      Array.for_all
        (fun (time, occ) -> time >= 0. && occ >= -1e-12 && occ <= 1. +. 1e-12)
        (Trace.occupancy_series t ~resources:spec.Gen.resources ~window))

(* --- Oracle: mixed-precision Cholesky vs FP64 reference ---------------- *)

let prop_mp_cholesky_within_bound =
  QCheck.Test.make ~name:"Mp_cholesky residual ≤ Higham–Mary bound (random pmaps)"
    ~count:100
    (QCheck.pair (Gen.spd_spec ~min_n:8 ~max_n:48 ()) (QCheck.int_range 0 1_000_000))
    (fun (mspec, kseed) ->
      let dense = Gen.spd_of_spec mspec in
      let nb = 8 in
      let nt = (mspec.Gen.n + nb - 1) / nb in
      let pmap = Gen.pmap_of_spec { Gen.nt; kseed } in
      let residual, bound, fp64 = Oracle.check_cholesky ~pmap ~nb dense in
      residual <= bound && fp64 <= 1e-12)

let () =
  Alcotest.run "verify"
    [
      ( "schedule explorer",
        [
          Alcotest.test_case "topological + diverse" `Quick
            test_random_schedules_topological_and_diverse;
          Alcotest.test_case "replay from seed" `Quick test_replay_from_seed;
          Alcotest.test_case "sequential = insertion order" `Quick
            test_sequential_schedule_is_insertion_order;
          Alcotest.test_case "systematic counts" `Quick test_systematic_counts;
          Alcotest.test_case "systematic limit" `Quick test_systematic_limit;
          Alcotest.test_case "invalid order rejected" `Quick test_run_schedule_rejects_invalid;
          qtest prop_random_schedule_topological;
        ] );
      ( "race checker",
        [
          Alcotest.test_case "seeded bug detected (WAR)" `Quick test_seeded_bug_detected;
          Alcotest.test_case "seeded bug detected (Cholesky RAW)" `Quick
            test_seeded_bug_cholesky_shaped;
          Alcotest.test_case "Cholesky_dag race-free" `Quick
            test_cholesky_dag_race_free;
          qtest prop_dtd_derivation_race_free;
          qtest prop_dropped_edge_races_are_real;
        ] );
      ("schedule independence", [ qtest prop_all_schedules_match_sequential ]);
      ( "fpformat properties",
        [
          qtest prop_refining_roundtrip_exact;
          qtest prop_down_up_down_stable;
          qtest prop_fp64_roundtrip_exact;
          qtest prop_refines_consistent_with_rank;
        ] );
      ( "comm_map oracle",
        [
          qtest prop_comm_map_matches_oracle;
          qtest prop_stc_iff_strictly_below_storage;
          qtest prop_comm_map_deterministic;
        ] );
      ( "trace invariants",
        [
          qtest prop_trace_utilisation_bounded;
          qtest prop_trace_makespan_dominates_busy;
          qtest prop_trace_occupancy_bounded;
        ] );
      ("cholesky oracle", [ qtest prop_mp_cholesky_within_bound ]);
    ]
