(* Data-motion accounting: the paper's central claim as one table.  For
   each precision configuration, the exact bytes the factorization's
   broadcasts put on the wire under the automated conversion strategy
   (STC), the always-TTC baseline and the all-FP64 reference — computed
   analytically from Algorithm 2's communication map (Comm_map.motion), no
   simulation involved.  Also exports the deterministic metric set of the
   CI bench gate (BENCH_smoke.json). *)

open Common
module Bench_json = Geomix_obs.Bench_json

let motion_row (cname, pmap) ~nb =
  let cm = Cm.compute pmap in
  let m = Cm.motion cm pmap ~nb in
  [
    cname;
    string_of_int m.Cm.transfers;
    Table.fmt_bytes m.Cm.bytes_stc;
    Table.fmt_bytes m.Cm.bytes_ttc;
    Table.fmt_bytes m.Cm.bytes_fp64;
    Table.fmt_pct (1. -. (m.Cm.bytes_stc /. m.Cm.bytes_ttc));
    Table.fmt_pct (1. -. (m.Cm.bytes_stc /. m.Cm.bytes_fp64));
    string_of_int m.Cm.conv_stc;
    string_of_int m.Cm.conv_ttc;
    Table.fmt_pct (Cm.stc_fraction cm);
  ]

let print_motion_table ~nb configs =
  let rows = List.map (fun config -> motion_row config ~nb) configs in
  Table.print
    ~align:[ Table.Left ]
    ~headers:
      [
        "config";
        "transfers";
        "bytes STC";
        "bytes TTC";
        "bytes FP64";
        "STC vs TTC";
        "STC vs FP64";
        "conv STC";
        "conv TTC";
        "STC tiles";
      ]
    rows

let run (scale : scale) =
  let ntiles = if scale.full then 100 else 24 in
  section "motion" "Data motion: STC vs TTC vs all-FP64 bytes on the wire";
  note "NT=%d, nb=%d; analytic per-broadcast accounting (Comm_map.motion)" ntiles nb;
  print_motion_table ~nb (fig8_configs ntiles);
  (* The adaptive maps of the three evaluation applications. *)
  let n = ntiles * nb in
  let app_configs =
    List.map (fun app -> (app.app_name, app_precision_map app ~n)) applications
  in
  print_motion_table ~nb app_configs;
  paper
    "Fig 8/11/12 attribute the mixed-precision speedup primarily to moving \
     fewer bytes; STC ships the Algorithm 2 format once instead of the \
     storage format to every consumer."

(* The deterministic metric set behind BENCH_smoke.json: an H100
   discrete-event simulation of the FP64/FP16_32 configuration (the paper's
   adaptive sweet spot) under both conversion strategies, plus the analytic
   motion accounting.  Everything here is a pure function of the model —
   wall-clock never enters, so the 20% CI gate cannot flap. *)
let rec smoke_metrics () =
  let ntiles = 24 in
  (* Two Summit nodes: small enough to simulate in milliseconds, large
     enough that the d2d/nic byte counters are exercised. *)
  let machine = Machine.summit ~nodes:2 () in
  let pmap = Pm.two_level ~nt:ntiles ~off_diag:Fp.Fp16_32 in
  let stc = run_sim ~machine pmap in
  let ttc = run_sim ~cmap:(Cm.ttc pmap) ~machine pmap in
  let cm = Cm.compute pmap in
  let m = Cm.motion cm pmap ~nb in
  let open Bench_json in
  [
    metric ~units:"s" "makespan_stc" stc.Sim.makespan;
    metric ~units:"s" "makespan_ttc" ttc.Sim.makespan;
    metric ~units:"Tflop/s" ~direction:Higher_is_better "tflops_stc" stc.Sim.tflops;
    metric ~units:"B" "sim_bytes_stc"
      (stc.Sim.bytes_h2d +. stc.Sim.bytes_d2d +. stc.Sim.bytes_nic);
    metric ~units:"B" "sim_bytes_ttc"
      (ttc.Sim.bytes_h2d +. ttc.Sim.bytes_d2d +. ttc.Sim.bytes_nic);
    metric ~units:"" "sim_conversions_stc" (float_of_int stc.Sim.conversions);
    metric ~units:"B" "motion_bytes_stc" m.Cm.bytes_stc;
    metric ~units:"B" "motion_bytes_ttc" m.Cm.bytes_ttc;
    metric ~units:"B" "motion_bytes_fp64" m.Cm.bytes_fp64;
    metric ~units:"" "motion_conv_stc" (float_of_int m.Cm.conv_stc);
    metric ~units:"" "motion_conv_ttc" (float_of_int m.Cm.conv_ttc);
    metric ~units:"J" "energy_stc" stc.Sim.energy.Geomix_gpusim.Energy.energy_joules;
  ]
  @ recovery_metrics ()
  @ integrity_metrics ()
  @ profile_metrics ()
  @ autotune_metrics ()

(* Recovery counters of the fault-injection layer: one seeded chaos
   factorization (transient + crash-after-write faults at 30%, supervised
   retry with snapshot restore) and one forced pivot-failure run driving a
   band escalation, both on the serial pool.  Fault decisions are pure
   hashes of (seed, task name, attempt), so every count — and the
   bitwise-equality check — is deterministic and the CI gate cannot flap. *)
and recovery_metrics () =
  let module Tiled = Geomix_tile.Tiled in
  let module Fault = Geomix_fault.Fault in
  let module Retry = Geomix_fault.Retry in
  let module Metrics = Geomix_obs.Metrics in
  let module Chol = Geomix_core.Mp_cholesky in
  let ntiles = 6 and nb = 8 in
  let spd () =
    Tiled.init ~n:(ntiles * nb) ~nb (fun i j ->
      (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))
  in
  let pmap = Pm.two_level ~nt:ntiles ~off_diag:Fp.Fp16_32 in
  let reference = spd () in
  Chol.factorize ~pmap reference;
  let reg = Metrics.create () in
  let a = spd () in
  let faults =
    Fault.plan ~obs:reg ~rate:0.3
      ~kinds:[ Fault.Transient; Fault.Crash_after_write ]
      ~sleep:ignore ~seed:7 ()
  in
  Geomix_parallel.Pool.with_pool ~num_workers:0 (fun pool ->
    Chol.factorize ~pool ~faults ~retry:(Retry.immediate ()) ~obs:reg ~pmap a);
  let exact = if Geomix_tile.Tiled.rel_diff a ~reference = 0. then 1. else 0. in
  let b = spd () in
  let pfaults = Fault.plan ~pivot_rate:1. ~sleep:ignore ~seed:7 () in
  let report = Chol.factorize_robust ~faults:pfaults ~obs:reg ~pmap b in
  let counter name =
    match Metrics.find (Metrics.snapshot reg) name with
    | Some (Metrics.Counter c) -> float_of_int c
    | _ -> 0.
  in
  let open Bench_json in
  [
    metric ~units:"" "recovery_injected" (float_of_int (Fault.injected faults));
    metric ~units:"" "recovery_retries" (counter "cholesky.retries");
    metric ~units:"B" "recovery_restored_bytes" (counter "cholesky.restored_bytes");
    metric ~units:"" "recovery_band_escalations" (counter "recovery.band_escalations");
    metric ~units:"" ~direction:Higher_is_better "recovery_exact" exact;
    metric ~units:"" ~direction:Higher_is_better "recovery_converged"
      (match report.Chol.outcome with Chol.Factorized -> 1. | Chol.Indefinite _ -> 0.);
  ]

(* ABFT integrity-guard accounting: a guarded fault-free factorization
   (bitwise identical to the unguarded one, by construction) and a seeded
   SDC chaos run.  The overhead fraction relates the bytes the guard hashes
   to the bytes the kernels touch (8·flops at FP64) — an analytic proxy
   for the checksum cost relative to compute, free of wall-clock noise.
   Stamp/verification counts, hash volume and the SDC detect/recover
   counters are all pure functions of (seed, DAG, precision map), so the
   CI gate cannot flap. *)
and integrity_metrics () =
  let module Tiled = Geomix_tile.Tiled in
  let module Fault = Geomix_fault.Fault in
  let module Retry = Geomix_fault.Retry in
  let module Metrics = Geomix_obs.Metrics in
  let module Guard = Geomix_integrity.Guard in
  let module Chol = Geomix_core.Mp_cholesky in
  let module Cdag = Geomix_runtime.Cholesky_dag in
  let module Task = Geomix_runtime.Task in
  let ntiles = 6 and nb = 8 in
  let spd () =
    Tiled.init ~n:(ntiles * nb) ~nb (fun i j ->
      (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))
  in
  let pmap = Pm.two_level ~nt:ntiles ~off_diag:Fp.Fp16_32 in
  let reference = spd () in
  Chol.factorize ~pmap reference;
  (* Guarded, fault-free: must match the unguarded factor bit for bit. *)
  let reg = Metrics.create () in
  let guard = Guard.create ~obs:reg ~snapshots:true () in
  let a = spd () in
  Chol.factorize ~integrity:guard ~pmap a;
  let exact = if Tiled.rel_diff a ~reference = 0. then 1. else 0. in
  let counter name =
    match Metrics.find (Metrics.snapshot reg) name with
    | Some (Metrics.Counter c) -> float_of_int c
    | _ -> 0.
  in
  let hashed = counter "integrity.hashed_bytes" in
  let g = Cdag.create ~nt:ntiles in
  let flops = ref 0. in
  for id = 0 to Cdag.num_tasks g - 1 do
    flops := !flops +. Task.flops ~nb (Cdag.kind_of g id)
  done;
  let overhead = hashed /. (hashed +. (8. *. !flops)) in
  (* Seeded SDC chaos: every injected corruption must be detected and
     recovered, and the recovered factor must again be bitwise exact. *)
  let b = spd () in
  let faults =
    Fault.plan ~obs:reg ~rate:0.5
      ~kinds:[ Fault.Transient; Fault.Crash_after_write; Fault.Sdc ]
      ~sleep:ignore ~seed:11 ()
  in
  Geomix_parallel.Pool.with_pool ~num_workers:0 (fun pool ->
    Chol.factorize ~pool ~faults ~retry:(Retry.immediate ()) ~integrity:guard
      ~obs:reg ~pmap b);
  let sdc_exact = if Tiled.rel_diff b ~reference = 0. then 1. else 0. in
  let open Bench_json in
  [
    metric ~units:"" "integrity.stamps" (counter "integrity.stamped");
    metric ~units:"" "integrity.verifications" (counter "integrity.verified");
    metric ~units:"B" "integrity.hashed_bytes" hashed;
    metric ~units:"" "integrity.verify_overhead_frac" overhead;
    metric ~units:"" ~direction:Higher_is_better "integrity_exact" exact;
    metric ~units:"" "integrity.sdc_detected" (counter "integrity.sdc_detected");
    metric ~units:"" "integrity.sdc_recovered"
      (counter "integrity.sdc_recovered");
    metric ~units:"" ~direction:Higher_is_better "integrity_sdc_exact" sdc_exact;
  ]

(* Critical-path fraction of the NT=24 Cholesky DAG under flop-weighted
   task durations: a pure function of the graph shape and Task.flops, so a
   change in either the DAG's dependence relations or the profiler's
   longest-path analysis moves it and trips the gate.  (Measured runs
   carry wall-clock noise; this uses the analytic weights instead.) *)
and profile_metrics () =
  let module Cdag = Geomix_runtime.Cholesky_dag in
  let module Task = Geomix_runtime.Task in
  let module Profile = Geomix_obs.Profile in
  let g = Cdag.create ~nt:24 in
  let n = Cdag.num_tasks g in
  let preds =
    Geomix_parallel.Dag_exec.predecessors ~num_tasks:n
      ~successors:(Cdag.successors g)
  in
  (* Serial layout: makespan = Σ durations, so cp_frac is the inherent
     sequential fraction of the flop-weighted DAG. *)
  let clock = ref 0. in
  let measures =
    List.init n (fun id ->
      let kind = Cdag.kind_of g id in
      let label = Task.name kind in
      let start = !clock in
      clock := !clock +. (Task.flops ~nb kind /. 1e12);
      {
        Profile.id;
        label;
        cls = Profile.class_of_label label;
        prec = "";
        worker = 0;
        start;
        stop = !clock;
      })
  in
  let p = Profile.analyze ~preds measures in
  let open Bench_json in
  [
    metric ~units:"" "profile.critical_path_frac" p.Profile.cp_frac;
    metric ~units:"" ~direction:Higher_is_better "profile.predicted_speedup_8w"
      (Profile.predicted_speedup p ~workers:8);
  ]

(* The range-driven autotuner's frontier on the fixed smoke instance
   (NT=8, nb=16, seed 42, default targets): how many points the Pareto
   front keeps, and the best advised-map STC volume relative to the
   norm-rule map among the points whose measured residual satisfies the
   differential-oracle bound.  The sweep is a pure function of the seed,
   so the gate cannot flap; the fraction dropping below 1 is the paper's
   data-motion claim extended to FP8 transfers. *)
and autotune_metrics () =
  let module Pe = Geomix_autotune.Pareto_explorer in
  let f = Pe.sweep ~nt:8 ~nb:16 ~seed:42 () in
  let motion_frac =
    List.fold_left
      (fun acc p ->
        if p.Pe.ok && p.Pe.bytes_stc_norm > 0. then
          Float.min acc (p.Pe.bytes_stc /. p.Pe.bytes_stc_norm)
        else acc)
      1. f.Pe.points
  in
  let open Bench_json in
  [
    metric ~units:"" ~direction:Higher_is_better "pareto_points"
      (float_of_int (List.length f.Pe.pareto));
    metric ~units:"" "advisor_vs_norm_motion_frac" motion_frac;
    metric ~units:"" ~direction:Higher_is_better "autotune_within_bound"
      (if Pe.all_within_bound f then 1. else 0.);
    metric ~units:"" ~direction:Higher_is_better "autotune_fp8_tiles"
      (float_of_int
         (List.fold_left (fun acc p -> max acc p.Pe.fp8_tiles) 0 f.Pe.points));
  ]
