(* The autotune tier: range-tracker invariants, advisor admissibility and
   the differential oracle, pilot non-interference, and frontier
   determinism.  Everything here is seeded — no wall-clock, no
   environment. *)

module Fp = Geomix_precision.Fpformat
module Mat = Geomix_linalg.Mat
module Tiled = Geomix_tile.Tiled
module Pm = Geomix_core.Precision_map
module Cm = Geomix_core.Comm_map
module Mp = Geomix_core.Mp_cholesky
module Rt = Geomix_autotune.Range_tracker
module Ta = Geomix_autotune.Type_advisor
module Pe = Geomix_autotune.Pareto_explorer

let scalar = Alcotest.testable Fp.pp_scalar ( = )

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- Range_tracker ----------------------------------------------------- *)

let hist_total st = List.fold_left (fun acc (_, n) -> acc + n) 0 st.Rt.exponents

let test_tracker_invariants () =
  let t = Rt.create ~nt:2 in
  List.iter
    (Rt.observe_value t ~i:1 ~j:0)
    [ 1.0; -3.5; 0.; 0.25; nan; infinity; 1e-300; -0.; 2.0 ];
  let st = Rt.stats t 1 0 in
  Alcotest.(check int) "observations" 9 st.Rt.observations;
  Alcotest.(check int) "zeros" 2 st.Rt.zeros;
  Alcotest.(check int) "nonfinite" 2 st.Rt.nonfinite;
  Alcotest.(check int) "histogram accounts for the rest"
    (st.Rt.observations - st.Rt.zeros - st.Rt.nonfinite)
    (hist_total st);
  Alcotest.(check (float 0.)) "min" 1e-300 st.Rt.min_mag;
  Alcotest.(check (float 0.)) "max" 3.5 st.Rt.max_mag;
  Alcotest.(check bool) "min <= max" true (st.Rt.min_mag <= st.Rt.max_mag);
  (* Untouched tiles stay pristine. *)
  let st00 = Rt.stats t 0 0 in
  Alcotest.(check int) "untouched tile" 0 st00.Rt.observations;
  Alcotest.(check (float 0.)) "untouched min is +inf" infinity st00.Rt.min_mag;
  Alcotest.(check int) "total across tiles" 9 (Rt.observations t)

let test_tracker_exponent_buckets () =
  let t = Rt.create ~nt:1 in
  (* 2^eu ≤ |x| < 2^(eu+1): 1.0 and 1.5 land in bucket 0, 0.25 in -2. *)
  List.iter (Rt.observe_value t ~i:0 ~j:0) [ 1.0; 1.5; 0.25; 8.0 ];
  let st = Rt.stats t 0 0 in
  Alcotest.(check (list (pair int int)))
    "buckets" [ (-2, 1); (0, 2); (3, 1) ] st.Rt.exponents

let test_tracker_under_overflow_counts () =
  let t = Rt.create ~nt:1 in
  (* Against FP16 (max 65504, min subnormal 2^-24): 2^-30 certainly
     flushes, 2^17 certainly overflows, 1.0 does neither. *)
  List.iter
    (Rt.observe_value t ~i:0 ~j:0)
    [ Float.ldexp 1. (-30); 1.0; Float.ldexp 1. 17 ];
  let st = Rt.stats t 0 0 in
  Alcotest.(check int) "fp16 underflows" 1 (Rt.underflows st Fp.S_fp16);
  Alcotest.(check int) "fp16 overflows" 1 (Rt.overflows st Fp.S_fp16);
  Alcotest.(check int) "fp64 underflows" 0 (Rt.underflows st Fp.S_fp64);
  Alcotest.(check int) "fp64 overflows" 0 (Rt.overflows st Fp.S_fp64);
  (* E4M3 saturates everything above 448 and flushes below 2^-10. *)
  Alcotest.(check int) "e4m3 overflows" 1 (Rt.overflows st Fp.S_fp8_e4m3);
  Alcotest.(check int) "e4m3 underflows" 1 (Rt.underflows st Fp.S_fp8_e4m3);
  Alcotest.(check bool) "does not fit e4m3" false (Rt.fits st Fp.S_fp8_e4m3);
  Alcotest.(check bool) "fits fp64" true (Rt.fits st Fp.S_fp64)

let test_tracker_fits_margin () =
  let t = Rt.create ~nt:1 in
  (* 1.0 and 448 both fit E4M3 exactly; a strict margin pushes the floor
     up past 1.0 only when margin · 2^-9 > 1. *)
  List.iter (Rt.observe_value t ~i:0 ~j:0) [ 1.0; 448. ];
  let st = Rt.stats t 0 0 in
  Alcotest.(check bool) "fits at margin 1" true (Rt.fits st Fp.S_fp8_e4m3);
  Alcotest.(check bool) "fits at the normal floor" true
    (Rt.fits ~margin:(0.5 /. Fp.scalar_unit_roundoff Fp.S_fp8_e4m3) st Fp.S_fp8_e4m3);
  Alcotest.(check bool) "margin can exclude" false
    (Rt.fits ~margin:(Float.ldexp 1. 10) st Fp.S_fp8_e4m3);
  Alcotest.(check bool) "449 would saturate" false
    (let t' = Rt.create ~nt:1 in
     Rt.observe_value t' ~i:0 ~j:0 449.;
     Rt.fits (Rt.stats t' 0 0) Fp.S_fp8_e4m3)

let prop_tracker_accounting =
  QCheck.Test.make ~count:200 ~name:"tracker accounting: hist + zeros + nonfinite = total"
    QCheck.(
      list_of_size Gen.(int_range 0 64)
        (oneof
           [
             float;
             always 0.;
             always nan;
             always infinity;
             float_range (-1e-300) 1e-300;
           ]))
    (fun xs ->
      let t = Rt.create ~nt:1 in
      List.iter (Rt.observe_value t ~i:0 ~j:0) xs;
      let st = Rt.stats t 0 0 in
      st.Rt.observations = List.length xs
      && hist_total st + st.Rt.zeros + st.Rt.nonfinite = st.Rt.observations
      && (st.Rt.min_mag <= st.Rt.max_mag || st.Rt.min_mag = infinity))

let test_tracker_input_norms () =
  let nt = 3 and nb = 4 in
  let a = Tiled.init ~n:(nt * nb) ~nb (Pe.synthetic_element ~seed:11) in
  let t = Rt.create ~nt in
  Rt.observe_tiled t a;
  Alcotest.(check (float 1e-12))
    "tile norm matches Tiled.tile_frobenius on the diagonal"
    (Tiled.tile_frobenius a 1 1) (Rt.input_tile_norm t 1 1);
  Alcotest.(check bool) "global norm positive" true (Rt.input_norm t > 0.);
  (* ‖A‖² over stored tiles ≥ any single tile's mass. *)
  Alcotest.(check bool) "global >= tile" true
    (Rt.input_norm t >= Rt.input_tile_norm t 2 0)

(* --- pilot non-interference ------------------------------------------- *)

let tiles_bit_identical a b =
  let ok = ref true in
  Tiled.iter_lower a (fun ~i ~j m ->
      let m' = Tiled.tile b i j in
      for r = 0 to Mat.rows m - 1 do
        for c = 0 to Mat.cols m - 1 do
          if
            Int64.bits_of_float (Mat.get m r c)
            <> Int64.bits_of_float (Mat.get m' r c)
          then ok := false
        done
      done);
  !ok

let test_pilot_leaves_factorization_bit_identical () =
  let nt = 4 and nb = 8 in
  let a = Tiled.init ~n:(nt * nb) ~nb (Pe.synthetic_element ~seed:42) in
  let pmap = Pm.of_tiled ~u_req:1e-8 a in
  let plain = Tiled.copy a and observed = Tiled.copy a in
  Mp.factorize ~pmap plain;
  let tracker = Rt.create ~nt in
  Mp.factorize ~observe:(Rt.hook tracker) ~pmap observed;
  Alcotest.(check bool) "observation is read-only" true
    (tiles_bit_identical plain observed);
  Alcotest.(check bool) "tracker saw every task output" true
    (Rt.observations tracker > 0)

(* --- Type_advisor ------------------------------------------------------ *)

let advise_for ~seed ~nt ~nb ~u_req =
  let a = Tiled.init ~n:(nt * nb) ~nb (Pe.synthetic_element ~seed) in
  let pmap = Pm.of_tiled ~u_req a in
  let tracker = Rt.create ~nt in
  Rt.observe_tiled tracker a;
  let pilot = Tiled.copy a in
  Mp.factorize ~observe:(Rt.hook tracker) ~pmap pilot;
  (a, pmap, Ta.advise ~u_req ~ranges:tracker ~pmap ())

let test_advisor_never_widens () =
  let _, pmap, adv = advise_for ~seed:42 ~nt:6 ~nb:8 ~u_req:1e-2 in
  let nt = Pm.nt pmap in
  for i = 0 to nt - 1 do
    for j = 0 to i do
      let base = Cm.shipped adv.Ta.base pmap i j
      and advised = Cm.shipped adv.Ta.cmap pmap i j in
      Alcotest.(check bool)
        (Printf.sprintf "tile (%d,%d) never widens" i j)
        true
        (Fp.scalar_bytes advised <= Fp.scalar_bytes base)
    done
  done

let test_advisor_demotions_admissible () =
  let _, _, adv = advise_for ~seed:42 ~nt:6 ~nb:8 ~u_req:1e-2 in
  Alcotest.(check bool) "some demotion at a loose target" true (Ta.demoted adv > 0);
  List.iter
    (fun d ->
      Alcotest.(check bool) "strictly narrower" true
        (Fp.scalar_bytes d.Ta.advised_comm < Fp.scalar_bytes d.Ta.base_comm);
      Alcotest.(check bool) "norm rule honored" true
        (d.Ta.ratio *. Fp.scalar_unit_roundoff d.Ta.advised_comm <= 1e-2))
    adv.Ta.demotions;
  Alcotest.(check bool) "fp8 count bounded by demotions" true
    (Ta.fp8_tiles adv <= Ta.demoted adv)

let test_advisor_tight_target_demotes_nothing () =
  let _, _, adv = advise_for ~seed:42 ~nt:4 ~nb:8 ~u_req:1e-14 in
  Alcotest.(check int) "no demotion at fp64 accuracy" 0 (Ta.demoted adv);
  Alcotest.(check bool) "cmap equals base" true (Cm.equal adv.Ta.base adv.Ta.cmap)

let test_advisor_requires_primed_tracker () =
  let nt = 2 and nb = 4 in
  let a = Tiled.init ~n:(nt * nb) ~nb (Pe.synthetic_element ~seed:1) in
  let pmap = Pm.of_tiled ~u_req:1e-4 a in
  let tracker = Rt.create ~nt in
  Alcotest.check_raises "un-primed tracker rejected"
    (Invalid_argument
       "Type_advisor.advise: tracker holds no input mass — observe_tiled the pilot \
        matrix before advising")
    (fun () -> ignore (Ta.advise ~u_req:1e-4 ~ranges:tracker ~pmap ()))

let test_advisor_chain_respected () =
  (* Restricting the chain to FP16 forbids both FP8s. *)
  let nt = 6 and nb = 8 in
  let a = Tiled.init ~n:(nt * nb) ~nb (Pe.synthetic_element ~seed:42) in
  let pmap = Pm.of_tiled ~u_req:1e-2 a in
  let tracker = Rt.create ~nt in
  Rt.observe_tiled tracker a;
  let pilot = Tiled.copy a in
  Mp.factorize ~observe:(Rt.hook tracker) ~pmap pilot;
  let adv = Ta.advise ~chain:[ Fp.S_fp16 ] ~u_req:1e-2 ~ranges:tracker ~pmap () in
  Alcotest.(check int) "no fp8 outside the chain" 0 (Ta.fp8_tiles adv);
  List.iter
    (fun d -> Alcotest.check scalar "fp16 only" Fp.S_fp16 d.Ta.advised_comm)
    adv.Ta.demotions

(* --- differential oracle ----------------------------------------------- *)

let test_differential_oracle_across_seeds () =
  (* The measured residual of a factorization under the advised map must
     satisfy the Higham–Mary bound for every (seed, NT) — the FP64 oracle
     differential the issue's acceptance criteria pin. *)
  List.iter
    (fun (seed, nt) ->
      let f =
        Pe.sweep ~targets:[ 1e-2; 1e-6; 1e-10 ] ~nt ~nb:8 ~seed ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d nt %d within bound" seed nt)
        true (Pe.all_within_bound f))
    [ (1, 4); (7, 4); (42, 6); (1234, 5) ]

let test_frontier_shape () =
  let f = Pe.sweep ~nt:8 ~nb:16 ~seed:42 () in
  Alcotest.(check int) "six default targets" 6 (List.length f.Pe.points);
  Alcotest.(check bool) "pareto subset nonempty" true (List.length f.Pe.pareto > 0);
  Alcotest.(check bool) "pareto is a subset" true
    (List.for_all (fun p -> List.memq p f.Pe.points) f.Pe.pareto);
  (* Loosest-first ordering. *)
  let targets = List.map (fun p -> p.Pe.target) f.Pe.points in
  Alcotest.(check (list (float 0.)))
    "targets sorted loosest first"
    (List.sort (fun a b -> compare b a) targets)
    targets;
  Alcotest.(check bool) "acceptance: an fp8 motion win exists" true
    (Pe.fp8_motion_win f);
  List.iter
    (fun p ->
      Alcotest.(check bool) "stc <= fp64 bytes" true (p.Pe.bytes_stc <= p.Pe.bytes_fp64);
      Alcotest.(check bool) "advised stc <= norm-rule stc" true
        (p.Pe.bytes_stc <= p.Pe.bytes_stc_norm))
    f.Pe.points

let test_frontier_deterministic () =
  let f1 = Pe.sweep ~nt:4 ~nb:8 ~seed:42 ()
  and f2 = Pe.sweep ~nt:4 ~nb:8 ~seed:42 ()
  and f3 = Pe.sweep ~nt:4 ~nb:8 ~seed:43 () in
  Alcotest.(check string)
    "same seed, byte-identical JSON" (Pe.to_json_string f1) (Pe.to_json_string f2);
  Alcotest.(check bool) "different seed, different JSON" true
    (Pe.to_json_string f1 <> Pe.to_json_string f3)

let test_pareto_front_nondominated () =
  let f = Pe.sweep ~nt:4 ~nb:8 ~seed:7 () in
  List.iter
    (fun p ->
      Alcotest.(check bool) "no point dominates a front member" true
        (not
           (List.exists
              (fun q ->
                q != p
                && q.Pe.bytes_stc <= p.Pe.bytes_stc
                && q.Pe.residual <= p.Pe.residual
                && (q.Pe.bytes_stc < p.Pe.bytes_stc || q.Pe.residual < p.Pe.residual))
              f.Pe.points)))
    f.Pe.pareto

let test_markdown_render () =
  let f = Pe.sweep ~targets:[ 1e-2; 1e-8 ] ~nt:4 ~nb:8 ~seed:42 () in
  let md = Pe.to_markdown f in
  Alcotest.(check bool) "has section header" true
    (contains ~needle:"Autotune Pareto frontier" md);
  Alcotest.(check bool) "has a table row per point" true
    (contains ~needle:"1e-02" md || contains ~needle:"1e-2" md)

let () =
  Alcotest.run "autotune"
    [
      ( "range tracker",
        [
          Alcotest.test_case "accounting invariants" `Quick test_tracker_invariants;
          Alcotest.test_case "exponent buckets" `Quick test_tracker_exponent_buckets;
          Alcotest.test_case "under/overflow counts" `Quick
            test_tracker_under_overflow_counts;
          Alcotest.test_case "fits with margin" `Quick test_tracker_fits_margin;
          Alcotest.test_case "input norms" `Quick test_tracker_input_norms;
          QCheck_alcotest.to_alcotest prop_tracker_accounting;
        ] );
      ( "pilot",
        [
          Alcotest.test_case "observation leaves tiles bit-identical" `Quick
            test_pilot_leaves_factorization_bit_identical;
        ] );
      ( "type advisor",
        [
          Alcotest.test_case "never widens" `Quick test_advisor_never_widens;
          Alcotest.test_case "demotions admissible" `Quick
            test_advisor_demotions_admissible;
          Alcotest.test_case "tight target demotes nothing" `Quick
            test_advisor_tight_target_demotes_nothing;
          Alcotest.test_case "requires primed tracker" `Quick
            test_advisor_requires_primed_tracker;
          Alcotest.test_case "chain respected" `Quick test_advisor_chain_respected;
        ] );
      ( "pareto explorer",
        [
          Alcotest.test_case "differential oracle across seeds" `Quick
            test_differential_oracle_across_seeds;
          Alcotest.test_case "frontier shape and acceptance" `Quick test_frontier_shape;
          Alcotest.test_case "deterministic JSON" `Quick test_frontier_deterministic;
          Alcotest.test_case "pareto front non-dominated" `Quick
            test_pareto_front_nondominated;
          Alcotest.test_case "markdown render" `Quick test_markdown_render;
        ] );
    ]
