(* geomix chaos: factorize under seeded fault injection and check that the
   recovered factor is bitwise the fault-free one. *)

open Cmdliner
open Cli
module Tiled = Geomix_tile.Tiled
module Fault = Geomix_fault.Fault
module Retry = Geomix_fault.Retry
module Chol = Geomix_core.Mp_cholesky
module Guard = Geomix_integrity.Guard

let run seed ntiles config nb rate pivot_rate kinds sdc attempts workers format
    metrics_out verbose =
  let reg = Metrics.create () in
  attach_stderr_of ~verbose reg;
  let n = ntiles * nb in
  let a = spd_test_matrix ~n ~nb in
  let pmap = pmap_of_config ~ntiles config in
  let kinds =
    if sdc && not (List.mem Fault.Sdc kinds) then kinds @ [ Fault.Sdc ] else kinds
  in
  let faults =
    Fault.plan ~obs:reg ~rate ~kinds ~pivot_rate ~sleep:ignore ~seed ()
  in
  (* The guard (with snapshots, so detected corruptions are repairable in
     place) rides along whenever SDC is armed. *)
  let integrity =
    if List.mem Fault.Sdc kinds then
      Some (Guard.create ~obs:reg ~snapshots:true ())
    else None
  in
  let retry = Retry.immediate ~max_attempts:attempts () in
  Printf.printf
    "chaos: NT=%d nb=%d, seed %d, fault rate %.0f%%, pivot rate %.0f%%, retry budget %d%s\n"
    ntiles nb seed (100. *. rate) (100. *. pivot_rate) attempts
    (if integrity <> None then ", SDC armed (ABFT guard on)" else "");
  let report =
    Pool.with_pool ~obs:reg ?num_workers:workers (fun pool ->
      Chol.factorize_robust ~pool ~faults ~retry ~obs:reg ?integrity ~pmap a)
  in
  List.iter
    (fun e ->
      Printf.printf "  escalated block %d to FP64 (%s scope)\n" e.Chol.block
        (match e.Chol.scope with Chol.Band -> "band" | Chol.Full -> "full"))
    report.Chol.escalations;
  Printf.printf "injected %d execution faults and %d pivot failures over %d round(s)\n"
    (Fault.injected faults) (Fault.pivots faults) report.Chol.rounds;
  (match integrity with
  | None -> ()
  | Some g ->
    Printf.printf
      "integrity: %d stamps, %d verifications (%s hashed), %d SDC detected, %d recovered\n"
      (Guard.stamped g) (Guard.verified g)
      (fb (float_of_int (Guard.hashed_bytes g)))
      (Guard.detected g) (Guard.recovered g));
  match report.Chol.outcome with
  | Chol.Indefinite p ->
    print_metrics ?metrics_out format reg;
    Printf.eprintf "geomix chaos: matrix indefinite at global pivot %d even at FP64\n" p;
    exit 2
  | Chol.Factorized ->
    (* The recovered factor must equal a fault-free factorization under
       the map the final round actually ran — bitwise. *)
    let reference = spd_test_matrix ~n ~nb in
    Chol.factorize ~pmap:report.Chol.pmap reference;
    let diff = Tiled.rel_diff a ~reference in
    Printf.printf "recovered factor vs fault-free run: rel diff %.3e (%s)\n" diff
      (if diff = 0. then "bitwise identical" else "MISMATCH");
    print_metrics ?metrics_out format reg;
    if diff <> 0. then exit 1;
    (* SDC contract: with the guard on, a run that reaches this point has
       a bitwise-clean factor; additionally every detection must have
       been recovered, and injected corruptions must not have gone
       entirely unnoticed.  (An unrecoverable corruption never reaches
       here — Guard.Corrupt exits 2 through the CLI boundary.) *)
    (match integrity with
    | None -> ()
    | Some g ->
      let det = Guard.detected g and recov = Guard.recovered g in
      let injected_sdc =
        match List.assoc_opt Fault.Sdc (Fault.by_kind faults) with
        | Some n -> n
        | None -> 0
      in
      if det <> recov then begin
        Printf.eprintf "geomix chaos: %d detections but only %d recoveries\n" det recov;
        exit 1
      end;
      if injected_sdc > 0 && det = 0 then begin
        Printf.eprintf
          "geomix chaos: %d corruptions injected, none detected\n" injected_sdc;
        exit 1
      end)

let cmd =
  let kind_conv =
    Arg.enum
      [
        ("transient", Fault.Transient);
        ("crash", Fault.Crash_after_write);
        ("stall", Fault.Stall);
        ("sdc", Fault.Sdc);
      ]
  in
  let rate_arg =
    Arg.(value & opt probability 0.1 & info [ "rate" ] ~doc:"Per-task fault probability.")
  in
  let pivot_rate_arg =
    Arg.(
      value & opt probability 0.
      & info [ "pivot-rate" ]
          ~doc:
            "Probability of a forced pivot failure per low-precision POTRF \
             (exercises the precision-escalation fallback).")
  in
  let kinds_arg =
    Arg.(
      value
      & opt (list kind_conv) [ Fault.Transient; Fault.Crash_after_write ]
      & info [ "kinds" ] ~doc:"Fault kinds to inject: transient, crash, stall, sdc.")
  in
  let sdc_arg =
    Arg.(
      value & flag
      & info [ "sdc" ]
          ~doc:
            "Arm silent-data-corruption injection (adds the sdc fault kind) \
             and attach the ABFT integrity guard with snapshots, then assert \
             that every injected corruption was detected and recovered: the \
             run fails unless the factor is bitwise identical to the \
             fault-free reference and no detection went unrecovered.")
  in
  let attempts_arg =
    Arg.(value & opt positive_int 3 & info [ "attempts" ] ~doc:"Retry budget per task.")
  in
  let exits =
    Cmd.Exit.info 0
      ~doc:
        "the recovered factor is bitwise identical to the fault-free \
         reference run (and, under $(b,--sdc), every injected corruption \
         was detected and recovered)."
    :: Cmd.Exit.info 1
         ~doc:
           "the recovered factor diverged from the reference, or an \
            injected corruption escaped the integrity guard."
    :: Cmd.Exit.info 2
         ~doc:
           "a domain failure: the matrix is indefinite even at FP64, an \
            integrity violation could not be recovered, or a system error \
            (e.g. an unwritable $(b,--metrics-out) path) occurred."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "chaos" ~exits
       ~doc:
         "Factorize under seeded fault injection and verify the recovered result \
          is bitwise identical to a fault-free run")
    Term.(
      const run $ seed_arg $ nt_arg 6 $ config_arg `Mixed16_32 $ nb_arg 16 $ rate_arg
      $ pivot_rate_arg $ kinds_arg $ sdc_arg $ attempts_arg $ workers_arg ""
      $ metrics_format_arg
      $ metrics_out_arg
          ~doc:
            "Also write the final metrics snapshot (fault, recovery and \
             integrity counters) as JSON to this file — written on both \
             success and failure, so CI can upload it as an artifact."
      $ verbose_arg)
