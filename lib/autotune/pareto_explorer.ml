module Fp = Geomix_precision.Fpformat
module Pm = Geomix_core.Precision_map
module Cm = Geomix_core.Comm_map
module Mp = Geomix_core.Mp_cholesky
module Sim = Geomix_core.Sim_cholesky
module Mat = Geomix_linalg.Mat
module Check = Geomix_linalg.Check
module Tiled = Geomix_tile.Tiled
module Machine = Geomix_gpusim.Machine
module Gpu_specs = Geomix_gpusim.Gpu_specs
module Jsonlite = Geomix_obs.Jsonlite
module Report = Geomix_obs.Report

type point = {
  target : float;
  residual : float;
  residual_norm : float;
  bound : float;
  ok : bool;
  demoted_tiles : int;
  fp8_tiles : int;
  bytes_stc : float;
  bytes_stc_norm : float;
  bytes_fp64 : float;
  energy : float;
  energy_norm : float;
  makespan : float;
  makespan_norm : float;
}

type frontier = {
  nt : int;
  nb : int;
  seed : int;
  machine : string;
  points : point list;
  pareto : point list;
}

let default_targets = [ 1e-2; 1e-4; 1e-6; 1e-8; 1e-10; 1e-12 ]

(* A seeded SPD covariance-like test matrix in closed form: exponential
   decay off the diagonal with seed-dependent decay rate and diagonal
   boost.  A pure function of (seed, i, j), so the whole sweep — and its
   JSON — is reproducible byte for byte. *)
let synthetic_element ~seed i j =
  let beta = 0.04 +. (0.002 *. float_of_int (seed land 7)) in
  let diag = if i = j then 1.0 +. (0.01 *. float_of_int ((seed lsr 3) land 15)) else 0. in
  diag +. exp (-.beta *. float_of_int (abs (i - j)))

(* Non-dominated subset under (bytes_stc, residual), both minimized. *)
let pareto_front points =
  List.filter
    (fun p ->
      not
        (List.exists
           (fun q ->
             q != p
             && q.bytes_stc <= p.bytes_stc
             && q.residual <= p.residual
             && (q.bytes_stc < p.bytes_stc || q.residual < p.residual))
           points))
    points

let explore_target ~machine ~element ~nt ~nb target =
  let n = nt * nb in
  let a0 = Tiled.init ~n ~nb element in
  let dense = Tiled.to_dense a0 in
  let pmap = Pm.of_tiled ~u_req:target a0 in
  (* Pilot: one norm-rule factorization instrumented with the range
     tracker, primed with the input tiles so the advisor has the
     Higham–Mary ratios.  The pilot doubles as the norm-rule accuracy
     measurement. *)
  let tracker = Range_tracker.create ~nt in
  Range_tracker.observe_tiled tracker a0;
  let pilot = Tiled.copy a0 in
  Mp.factorize ~observe:(Range_tracker.hook tracker) ~pmap pilot;
  let residual_of t =
    let l = Tiled.to_dense t in
    Mat.zero_upper l;
    Check.cholesky_residual ~a:dense ~l
  in
  let residual_norm = residual_of pilot in
  (* Advise, then factorize under the advised transfer formats. *)
  let advice = Type_advisor.advise ~u_req:target ~ranges:tracker ~pmap () in
  let advised = Tiled.copy a0 in
  Mp.factorize ~cmap:advice.Type_advisor.cmap ~pmap advised;
  let residual = residual_of advised in
  let bound = Type_advisor.residual_bound advice in
  (* Motion and simulated energy/makespan, advised vs norm-rule. *)
  let m_adv = Cm.motion advice.Type_advisor.cmap pmap ~nb in
  let m_norm = Cm.motion advice.Type_advisor.base pmap ~nb in
  let sim_adv = Sim.run ~cmap:advice.Type_advisor.cmap ~machine ~pmap ~nb () in
  let sim_norm = Sim.run ~machine ~pmap ~nb () in
  {
    target;
    residual;
    residual_norm;
    bound;
    ok = residual <= bound && residual_norm <= bound;
    demoted_tiles = Type_advisor.demoted advice;
    fp8_tiles = Type_advisor.fp8_tiles advice;
    bytes_stc = m_adv.Cm.bytes_stc;
    bytes_stc_norm = m_norm.Cm.bytes_stc;
    bytes_fp64 = m_norm.Cm.bytes_fp64;
    energy = sim_adv.Sim.energy.Geomix_gpusim.Energy.energy_joules;
    energy_norm = sim_norm.Sim.energy.Geomix_gpusim.Energy.energy_joules;
    makespan = sim_adv.Sim.makespan;
    makespan_norm = sim_norm.Sim.makespan;
  }

let sweep ?(targets = default_targets) ?machine ~nt ~nb ~seed () =
  if targets = [] then invalid_arg "Pareto_explorer.sweep: empty target list";
  let machine =
    match machine with Some m -> m | None -> Machine.single_gpu Gpu_specs.A100
  in
  let element = synthetic_element ~seed in
  let targets = List.sort_uniq (fun a b -> compare b a) targets in
  let points =
    List.map (fun t -> explore_target ~machine ~element ~nt ~nb t) targets
  in
  { nt; nb; seed; machine = machine.Machine.name; points; pareto = pareto_front points }

(* --- rendering --------------------------------------------------------- *)

let point_json p =
  Jsonlite.Obj
    [
      ("target", Jsonlite.Num p.target);
      ("residual", Jsonlite.Num p.residual);
      ("residual_norm_rule", Jsonlite.Num p.residual_norm);
      ("bound", Jsonlite.Num p.bound);
      ("ok", Jsonlite.Bool p.ok);
      ("demoted_tiles", Jsonlite.Num (float_of_int p.demoted_tiles));
      ("fp8_tiles", Jsonlite.Num (float_of_int p.fp8_tiles));
      ("bytes_stc", Jsonlite.Num p.bytes_stc);
      ("bytes_stc_norm_rule", Jsonlite.Num p.bytes_stc_norm);
      ("bytes_fp64", Jsonlite.Num p.bytes_fp64);
      ("energy_joules", Jsonlite.Num p.energy);
      ("energy_joules_norm_rule", Jsonlite.Num p.energy_norm);
      ("makespan_s", Jsonlite.Num p.makespan);
      ("makespan_s_norm_rule", Jsonlite.Num p.makespan_norm);
    ]

let to_json f =
  Jsonlite.Obj
    [
      ("schema", Jsonlite.Str "geomix-autotune-frontier/1");
      ("nt", Jsonlite.Num (float_of_int f.nt));
      ("nb", Jsonlite.Num (float_of_int f.nb));
      ("seed", Jsonlite.Num (float_of_int f.seed));
      ("machine", Jsonlite.Str f.machine);
      ("points", Jsonlite.Arr (List.map point_json f.points));
      ("pareto", Jsonlite.Arr (List.map point_json f.pareto));
    ]

let to_json_string f = Jsonlite.to_string ~indent:true (to_json f)

let on_pareto f p = List.exists (fun q -> q == p) f.pareto

let report_section f report =
  Report.section report "Autotune Pareto frontier";
  Report.para report
    (Printf.sprintf
       "Range-driven precision autotuner: NT=%d, nb=%d, seed=%d on %s. Each row \
        sweeps one accuracy target: a norm-rule pilot factorization is \
        range-instrumented, the type advisor demotes transfer formats (down to \
        FP8-E4M3/E5M2) where measured ranges and the scalar-level norm rule both \
        allow it, and the advised map is re-factorized and simulated. '*' marks \
        points on the accuracy-vs-motion Pareto front."
       f.nt f.nb f.seed f.machine);
  Report.table report
    ~headers:
      [
        "target"; "residual"; "bound"; "ok"; "demoted"; "fp8"; "STC bytes";
        "norm-rule bytes"; "energy (J)"; "front";
      ]
    (List.map
       (fun p ->
         [
           Printf.sprintf "%.0e" p.target;
           Printf.sprintf "%.3e" p.residual;
           Printf.sprintf "%.3e" p.bound;
           (if p.ok then "yes" else "NO");
           string_of_int p.demoted_tiles;
           string_of_int p.fp8_tiles;
           Printf.sprintf "%.0f" p.bytes_stc;
           Printf.sprintf "%.0f" p.bytes_stc_norm;
           Printf.sprintf "%.3e" p.energy;
           (if on_pareto f p then "*" else "");
         ])
       f.points);
  Report.attach report ~key:"autotune_frontier" (to_json f)

let to_markdown f =
  let r = Report.create ~title:"geomix autotune" in
  report_section f r;
  Report.to_markdown r

(* Acceptance predicates for the CLI exit contract and the test suite. *)

let all_within_bound f = List.for_all (fun p -> p.ok) f.points

let fp8_motion_win f =
  List.exists (fun p -> p.ok && p.fp8_tiles > 0 && p.bytes_stc < p.bytes_stc_norm) f.points
