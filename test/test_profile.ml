(* Critical-path profiler: exact analysis on hand-built graphs, and the
   invariants the report pipeline relies on — cp ≤ makespan ≤ Σ durations,
   attribution buckets summing to total busy time, zero slack along the
   chain, and schedule-independence of the analysis under the virtual
   executor's seeded replays of generated DTD programs. *)

module P = Geomix_obs.Profile
module Dtd = Geomix_verify.Dtd
module Gen = Geomix_verify.Gen
module Explore = Geomix_verify.Explore

let feq msg = Alcotest.(check (float 1e-12)) msg

let m ~id ~label ?(prec = "") ~worker ~start ~stop () =
  { P.id; label; cls = P.class_of_label label; prec; worker; start; stop }

(* Diamond 0 → {1, 2} → 3 with durations 1, 2, 5, 1: the critical path runs
   through the slow middle task. *)
let diamond_preds = [| []; [ 0 ]; [ 0 ]; [ 1; 2 ] |]

let diamond_measures =
  [
    m ~id:0 ~label:"POTRF(0)" ~prec:"FP64" ~worker:0 ~start:0. ~stop:1. ();
    m ~id:1 ~label:"TRSM(1,0)" ~prec:"FP32" ~worker:0 ~start:1. ~stop:3. ();
    m ~id:2 ~label:"SYRK(1,0)" ~prec:"FP16" ~worker:1 ~start:1. ~stop:6. ();
    m ~id:3 ~label:"POTRF(1)" ~prec:"FP64" ~worker:0 ~start:6. ~stop:7. ();
  ]

let test_diamond_exact () =
  let p = P.analyze ~preds:diamond_preds diamond_measures in
  feq "makespan" 7. p.P.makespan;
  feq "busy" 9. p.P.busy;
  feq "cp length" 7. p.P.cp_length;
  Alcotest.(check (list int)) "chain" [ 0; 2; 3 ] p.P.cp_chain;
  Alcotest.(check (list string)) "chain labels"
    [ "POTRF(0)"; "SYRK(1,0)"; "POTRF(1)" ]
    p.P.cp_chain_labels;
  feq "cp fraction" 1. p.P.cp_frac;
  feq "slack on chain head" 0. p.P.slack.(0);
  feq "slack on chain middle" 0. p.P.slack.(2);
  feq "slack on chain tail" 0. p.P.slack.(3);
  feq "slack of off-chain task" 3. p.P.slack.(1);
  Alcotest.(check int) "tasks" 4 p.P.tasks;
  Alcotest.(check int) "workers" 2 p.P.workers

let test_diamond_attribution () =
  let p = P.analyze ~preds:diamond_preds diamond_measures in
  let sum buckets =
    List.fold_left (fun acc (b : P.bucket) -> acc +. b.P.busy) 0. buckets
  in
  feq "classes sum to busy" p.P.busy (sum p.P.by_class);
  feq "precisions sum to busy" p.P.busy (sum p.P.by_precision);
  feq "workers sum to busy" p.P.busy
    (List.fold_left (fun acc w -> acc +. w.P.wbusy) 0. p.P.by_worker);
  (* Buckets come back sorted by busy time, largest first. *)
  (match p.P.by_class with
  | top :: _ -> Alcotest.(check string) "dominant class" "SYRK" top.P.key
  | [] -> Alcotest.fail "no class buckets");
  feq "lower bound, 1 worker" 9. (P.lower_bound p ~workers:1);
  feq "lower bound, 2 workers" 7. (P.lower_bound p ~workers:2);
  feq "lower bound saturates at cp" 7. (P.lower_bound p ~workers:64);
  feq "speedup capped by cp" 1. (P.predicted_speedup p ~workers:2)

let test_multi_round_durations_accumulate () =
  (* A retried/re-run task records several spans under the same id; its
     duration is their sum, as in a factorize_robust multi-round trace. *)
  let p =
    P.analyze
      ~preds:[| []; [ 0 ] |]
      [
        m ~id:0 ~label:"A" ~worker:0 ~start:0. ~stop:1. ();
        m ~id:0 ~label:"A" ~worker:0 ~start:2. ~stop:3. ();
        m ~id:1 ~label:"B" ~worker:0 ~start:3. ~stop:4. ();
      ]
  in
  feq "summed duration enters cp" 3. p.P.cp_length;
  Alcotest.(check int) "two distinct tasks" 2 p.P.tasks;
  Alcotest.(check int) "three spans" 3 p.P.spans

let test_empty_and_errors () =
  let p = P.analyze ~preds:[||] [] in
  feq "empty makespan" 0. p.P.makespan;
  feq "empty cp" 0. p.P.cp_length;
  Alcotest.(check (list int)) "empty chain" [] p.P.cp_chain;
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "id outside graph" true
    (raises (fun () ->
         P.analyze ~preds:[| [] |] [ m ~id:1 ~label:"x" ~worker:0 ~start:0. ~stop:1. () ]));
  Alcotest.(check bool) "negative span" true
    (raises (fun () ->
         P.analyze ~preds:[| [] |] [ m ~id:0 ~label:"x" ~worker:0 ~start:1. ~stop:0. () ]));
  Alcotest.(check bool) "cyclic graph" true
    (raises (fun () -> P.analyze ~preds:[| [ 1 ]; [ 0 ] |] []));
  Alcotest.(check bool) "lower_bound workers < 1" true
    (raises (fun () -> P.lower_bound p ~workers:0))

let test_class_of_label () =
  Alcotest.(check string) "kernel label" "GEMM" (P.class_of_label "GEMM(5,3,1)");
  Alcotest.(check string) "no args" "flush" (P.class_of_label "flush")

(* Serial layout of a schedule: each task's measured span laid end to end in
   schedule order, with durations a pure function of the task id.  Durations
   are dyadic rationals so every sum the analysis forms — forward, backward,
   or in schedule order — is exact, letting invariants hold with [=]. *)
let dur id = float_of_int (1 + (id * 7919 mod 5)) /. 1024.

let serial_measures t order =
  let clock = ref 0. in
  Array.to_list
    (Array.map
       (fun id ->
         let start = !clock in
         clock := !clock +. dur id;
         m ~id ~label:(Dtd.name t id)
           ~prec:[| "fp64"; "fp32"; "fp16" |].(id mod 3)
           ~worker:0 ~start ~stop:!clock ())
       order)

let prop_invariants_under_replays =
  QCheck.Test.make ~name:"cp<=makespan<=sum; buckets sum; replay-invariant"
    ~count:40
    (Gen.program_spec ())
    (fun spec ->
      let t = Gen.dtd_of_program (Gen.program_of_spec spec) in
      let g = Explore.of_dtd t in
      let preds = Explore.predecessors g in
      let reference = ref None in
      Explore.for_each_seed ~seeds:5 g (fun ~seed:_ order ->
          let p = P.analyze ~preds (serial_measures t order) in
          let total = Array.fold_left (fun acc id -> acc +. dur id) 0. order in
          (* Serial layout: makespan = busy = Σ durations; cp below both. *)
          assert (p.P.cp_length <= p.P.makespan +. 1e-12);
          assert (p.P.makespan <= total +. 1e-12);
          assert (Float.abs (p.P.busy -. total) <= 1e-12);
          let sum bs =
            List.fold_left (fun acc (b : P.bucket) -> acc +. b.P.busy) 0. bs
          in
          assert (Float.abs (sum p.P.by_class -. p.P.busy) <= 1e-9);
          assert (Float.abs (sum p.P.by_precision -. p.P.busy) <= 1e-9);
          Array.iter (fun s -> assert (s >= 0.)) p.P.slack;
          List.iter (fun id -> assert (p.P.slack.(id) = 0.)) p.P.cp_chain;
          (* The analysis is a function of graph + durations alone: every
             seeded replay must reproduce the same critical path. *)
          match !reference with
          | None -> reference := Some (p.P.cp_length, p.P.cp_chain)
          | Some (cp, chain) ->
            assert (p.P.cp_length = cp);
            assert (p.P.cp_chain = chain));
      true)

let prop_lower_bound_monotone =
  QCheck.Test.make ~name:"lower bound nonincreasing in workers" ~count:40
    (Gen.program_spec ())
    (fun spec ->
      let t = Gen.dtd_of_program (Gen.program_of_spec spec) in
      let g = Explore.of_dtd t in
      let preds = Explore.predecessors g in
      let p = P.analyze ~preds (serial_measures t (Explore.sequential_schedule g)) in
      let ok = ref true in
      for w = 1 to 7 do
        if P.lower_bound p ~workers:(w + 1) > P.lower_bound p ~workers:w +. 1e-15 then
          ok := false;
        if P.lower_bound p ~workers:w < p.P.cp_length -. 1e-15 then ok := false
      done;
      !ok)

let () =
  Alcotest.run "profile"
    [
      ( "analysis",
        [
          Alcotest.test_case "diamond critical path" `Quick test_diamond_exact;
          Alcotest.test_case "attribution and bounds" `Quick test_diamond_attribution;
          Alcotest.test_case "multi-round durations" `Quick
            test_multi_round_durations_accumulate;
          Alcotest.test_case "empty and invalid inputs" `Quick test_empty_and_errors;
          Alcotest.test_case "class of label" `Quick test_class_of_label;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_invariants_under_replays; prop_lower_bound_monotone ] );
    ]
