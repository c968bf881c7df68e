(* Fault-injection and recovery layer: plan determinism, supervised retry,
   fail-fast job cancellation, snapshot-sound re-execution in Dag_exec
   and the supervised Cholesky (with its recovery counters), and the
   precision-escalation fallback of the mixed-precision Cholesky.
   Everything is seeded — failures replay exactly. *)

module Fault = Geomix_fault.Fault
module Retry = Geomix_fault.Retry
module Metrics = Geomix_obs.Metrics
module Pool = Geomix_parallel.Pool
module Dag_exec = Geomix_parallel.Dag_exec
module Dtd = Geomix_verify.Dtd
module Task = Geomix_runtime.Task
module Cholesky_dag = Geomix_runtime.Cholesky_dag
module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Tiled = Geomix_tile.Tiled
module Fp = Geomix_precision.Fpformat
module Pm = Geomix_core.Precision_map
module Chol = Geomix_core.Mp_cholesky
module Explore = Geomix_verify.Explore
module Rng = Geomix_util.Rng

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xFA17 |]) t

exception Boom

let counter_of snap name =
  match Metrics.find snap name with
  | Some (Metrics.Counter c) -> c
  | _ -> Alcotest.failf "counter %s missing" name

(* Fault plan *)

let test_plan_deterministic () =
  let mk () =
    Fault.plan ~rate:0.5 ~kinds:[ Fault.Transient; Fault.Crash_after_write ]
      ~sleep:ignore ~seed:11 ()
  in
  let p1 = mk () and p2 = mk () in
  for i = 0 to 199 do
    let task = Printf.sprintf "T(%d)" i in
    List.iter
      (fun site ->
        List.iter
          (fun attempt ->
            Alcotest.(check bool)
              "same decision from same seed" true
              (Fault.decide p1 ~site ~task ~attempt
              = Fault.decide p2 ~site ~task ~attempt))
          [ 1; 2; 3 ])
      [ "pool"; "exec" ]
  done

let test_plan_seed_matters () =
  let p0 = Fault.plan ~rate:0.5 ~sleep:ignore ~seed:0 () in
  let p1 = Fault.plan ~rate:0.5 ~sleep:ignore ~seed:1 () in
  let differs = ref false in
  for i = 0 to 99 do
    let task = Printf.sprintf "T(%d)" i in
    if
      Fault.decide p0 ~site:"exec" ~task ~attempt:1
      <> Fault.decide p1 ~site:"exec" ~task ~attempt:1
    then differs := true
  done;
  Alcotest.(check bool) "different seeds draw differently" true !differs

let test_plan_rate_extremes () =
  let none = Fault.plan ~rate:0. ~sleep:ignore ~seed:7 () in
  let all = Fault.plan ~rate:1. ~sleep:ignore ~seed:7 () in
  for i = 0 to 49 do
    let task = Printf.sprintf "T(%d)" i in
    Alcotest.(check bool)
      "rate 0 never faults" true
      (Fault.decide none ~site:"exec" ~task ~attempt:1 = None);
    Alcotest.(check bool)
      "rate 1 faults every first attempt" true
      (Fault.decide all ~site:"exec" ~task ~attempt:1 <> None);
    (* fail_attempts defaults to 1: the retry is guaranteed clean. *)
    Alcotest.(check bool)
      "attempt 2 never eligible by default" true
      (Fault.decide all ~site:"exec" ~task ~attempt:2 = None)
  done

let test_plan_empirical_rate () =
  let p = Fault.plan ~rate:0.2 ~sleep:ignore ~seed:3 () in
  let hits = ref 0 in
  for i = 0 to 999 do
    if Fault.decide p ~site:"exec" ~task:(Printf.sprintf "T(%d)" i) ~attempt:1 <> None
    then incr hits
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rate 0.2 over 1000 draws hit %d times" !hits)
    true
    (!hits > 120 && !hits < 280)

let test_plan_only_filter () =
  let p =
    Fault.plan ~rate:1.
      ~only:(fun name -> String.length name > 0 && name.[0] = 'G')
      ~sleep:ignore ~seed:5 ()
  in
  Alcotest.(check bool)
    "filtered-in task faults" true
    (Fault.decide p ~site:"exec" ~task:"GEMM(2,1,0)" ~attempt:1 <> None);
  Alcotest.(check bool)
    "filtered-out task never faults" true
    (Fault.decide p ~site:"exec" ~task:"POTRF(0)" ~attempt:1 = None)

let test_plan_validates () =
  List.iter
    (fun f ->
      match f () with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> ignore (Fault.plan ~rate:1.5 ~seed:0 ()));
      (fun () -> ignore (Fault.plan ~rate:(-0.1) ~seed:0 ()));
      (fun () -> ignore (Fault.plan ~pivot_rate:2. ~seed:0 ()));
      (fun () -> ignore (Fault.plan ~stall:(-1.) ~seed:0 ()));
      (fun () -> ignore (Fault.plan ~fail_attempts:0 ~seed:0 ()));
      (fun () -> ignore (Fault.plan ~kinds:[] ~seed:0 ()));
    ]

let test_wrap_kinds () =
  (* Transient raises before the body; Crash_after_write after it; Stall
     sleeps on the plan's clock then runs it. *)
  let ran = ref false in
  let transient = Fault.plan ~rate:1. ~kinds:[ Fault.Transient ] ~sleep:ignore ~seed:1 () in
  (try Fault.wrap transient ~site:"exec" ~task:"t" ~attempt:1 (fun () -> ran := true)
   with Fault.Injected { kind = Fault.Transient; _ } -> ());
  Alcotest.(check bool) "transient skips body" false !ran;
  let crash = Fault.plan ~rate:1. ~kinds:[ Fault.Crash_after_write ] ~sleep:ignore ~seed:1 () in
  (try Fault.wrap crash ~site:"exec" ~task:"t" ~attempt:1 (fun () -> ran := true)
   with Fault.Injected { kind = Fault.Crash_after_write; _ } -> ());
  Alcotest.(check bool) "crash-after-write runs body" true !ran;
  let slept = ref 0. in
  let stall =
    Fault.plan ~rate:1. ~kinds:[ Fault.Stall ] ~stall:0.25
      ~sleep:(fun d -> slept := !slept +. d)
      ~seed:1 ()
  in
  ran := false;
  Fault.wrap stall ~site:"exec" ~task:"t" ~attempt:1 (fun () -> ran := true);
  Alcotest.(check bool) "stall runs body" true !ran;
  Alcotest.(check (float 0.)) "stall slept on the plan clock" 0.25 !slept;
  Alcotest.(check int) "three injections counted" 3
    (Fault.injected transient + Fault.injected crash + Fault.injected stall)

(* Retry *)

let test_retry_backoff_on_virtual_clock () =
  let sleep, elapsed = Retry.virtual_clock () in
  let policy =
    {
      Retry.max_attempts = 4;
      base_delay = 0.01;
      factor = 2.;
      max_delay = 0.025;
      jitter = 0.;
      sleep;
      retryable = (fun _ -> true);
    }
  in
  let calls = ref 0 in
  Retry.run policy (fun ~attempt ->
    incr calls;
    if attempt < 4 then raise Boom);
  Alcotest.(check int) "four attempts" 4 !calls;
  (* 0.01 + 0.02 + min 0.025 0.04 — the cap bites on the third backoff. *)
  Alcotest.(check (float 1e-12)) "backoff sum with cap" 0.055 (elapsed ())

let test_retry_delay_for () =
  let policy = { Retry.default with base_delay = 1e-3; factor = 2.; max_delay = 0.1 } in
  Alcotest.(check (float 1e-15)) "attempt 1" 1e-3 (Retry.delay_for policy ~attempt:1);
  Alcotest.(check (float 1e-15)) "attempt 2" 2e-3 (Retry.delay_for policy ~attempt:2);
  Alcotest.(check (float 1e-15)) "attempt 8 capped" 0.1 (Retry.delay_for policy ~attempt:8)

let test_retry_jitter () =
  let policy =
    { Retry.default with base_delay = 1e-2; factor = 2.; max_delay = 1.; jitter = 0.5 }
  in
  (* Jittered delays stay in [(1 − jitter)·d0, d0], are a pure function of
     (salt, attempt), and decorrelate across salts. *)
  let spread = ref false in
  for attempt = 1 to 6 do
    let d0 = 1e-2 *. (2. ** float_of_int (attempt - 1)) in
    let seen = Hashtbl.create 16 in
    for salt = 0 to 19 do
      let d = Retry.delay_for ~salt policy ~attempt in
      Alcotest.(check bool)
        (Printf.sprintf "salt %d attempt %d within window" salt attempt)
        true
        (d <= d0 +. 1e-15 && d >= (0.5 *. d0) -. 1e-15);
      Alcotest.(check (float 0.)) "replay is exact" d
        (Retry.delay_for ~salt policy ~attempt);
      Hashtbl.replace seen d ()
    done;
    if Hashtbl.length seen > 10 then spread := true
  done;
  Alcotest.(check bool) "salts decorrelate" true !spread;
  (* Without a salt the schedule is the deterministic one regardless of
     the jitter setting. *)
  Alcotest.(check (float 1e-15)) "no salt, no jitter" 2e-2
    (Retry.delay_for policy ~attempt:2)

let test_retry_jitter_respects_cap () =
  (* The cap applies after jitter: even the luckiest draw never exceeds
     max_delay, observable on a virtual clock. *)
  let sleep, elapsed = Retry.virtual_clock () in
  let policy =
    {
      Retry.max_attempts = 6;
      base_delay = 0.01;
      factor = 4.;
      max_delay = 0.05;
      jitter = 0.9;
      sleep;
      retryable = (fun _ -> true);
    }
  in
  let calls = ref 0 in
  Retry.run ~salt:42 policy (fun ~attempt ->
    incr calls;
    if attempt < 6 then raise Boom);
  Alcotest.(check int) "six attempts" 6 !calls;
  (* Five backoffs, each in (0, max_delay]. *)
  Alcotest.(check bool) "total bounded by attempts × cap" true
    (elapsed () <= 5. *. 0.05 +. 1e-12 && elapsed () > 0.);
  Alcotest.check_raises "jitter outside [0, 1] rejected"
    (Invalid_argument "Retry.run: jitter outside [0, 1]")
    (fun () ->
      Retry.run { policy with jitter = 1.5 } (fun ~attempt:_ -> ()))

let test_retry_restore_order () =
  (* restore runs before every re-execution, never before the first. *)
  let events = ref [] in
  let note e = events := e :: !events in
  Retry.run
    ~on_retry:(fun ~attempt _ -> note (Printf.sprintf "retry%d" attempt))
    ~restore:(fun () -> note "restore")
    (Retry.immediate ~max_attempts:3 ())
    (fun ~attempt ->
      note (Printf.sprintf "attempt%d" attempt);
      if attempt < 3 then raise Boom);
  Alcotest.(check (list string)) "supervision order"
    [ "attempt1"; "retry1"; "restore"; "attempt2"; "retry2"; "restore"; "attempt3" ]
    (List.rev !events)

let test_retry_not_retryable () =
  let calls = ref 0 in
  let policy =
    { (Retry.immediate ~max_attempts:5 ()) with retryable = (fun e -> e <> Boom) }
  in
  Alcotest.check_raises "non-retryable propagates" Boom (fun () ->
    Retry.run policy (fun ~attempt:_ ->
      incr calls;
      raise Boom));
  Alcotest.(check int) "single attempt" 1 !calls

let test_retry_budget_exhausted () =
  let calls = ref 0 in
  Alcotest.check_raises "final failure propagates" Boom (fun () ->
    Retry.run (Retry.immediate ~max_attempts:3 ()) (fun ~attempt:_ ->
      incr calls;
      raise Boom));
  Alcotest.(check int) "exactly max_attempts" 3 !calls;
  Alcotest.check_raises "max_attempts < 1 rejected"
    (Invalid_argument "Retry.run: max_attempts < 1")
    (fun () -> Retry.run { Retry.default with max_attempts = 0 } (fun ~attempt:_ -> ()))

(* Pool: fail-fast cancellation, per job *)

let test_pool_cancels_pending_serial () =
  (* Serial drain is deterministic: items run in order, the failure at item
     3 skips the six not-yet-started ones. *)
  let pool = Pool.create ~num_workers:0 () in
  let hits = ref 0 in
  let job = Pool.new_job pool in
  for i = 0 to 9 do
    Pool.submit_job pool job (fun () -> if i = 3 then raise Boom else incr hits)
  done;
  Alcotest.check_raises "first error re-raised" Boom (fun () -> Pool.join_job pool job);
  Alcotest.(check int) "items before the failure ran" 3 !hits;
  Alcotest.(check int) "items after the failure cancelled" 6 (Pool.job_skipped job);
  (* The pool stays usable after a cancellation round. *)
  let after = ref 0 in
  let job = Pool.new_job pool in
  for _ = 1 to 5 do
    Pool.submit_job pool job (fun () -> incr after)
  done;
  Pool.join_job pool job;
  Alcotest.(check int) "usable after cancellation" 5 !after;
  Pool.shutdown pool

let test_pool_cancels_pending_parallel () =
  (* With real workers the interleaving is nondeterministic; assert the
     accounting invariant: ran + cancelled = submitted, and nothing runs
     after join_job reports the error. *)
  let pool = Pool.create ~num_workers:2 () in
  let hits = Atomic.make 0 in
  let total = 200 in
  let job = Pool.new_job pool in
  for i = 0 to total - 1 do
    Pool.submit_job pool job (fun () -> if i = 50 then raise Boom else Atomic.incr hits)
  done;
  Alcotest.check_raises "first error re-raised" Boom (fun () -> Pool.join_job pool job);
  let ran = Atomic.get hits and cancelled = Pool.job_skipped job in
  Alcotest.(check int) "ran + failed + cancelled = submitted" total (ran + 1 + cancelled);
  Pool.shutdown pool

let test_pool_error_backtrace_preserved () =
  (* join_job must rethrow the recorded exception (with its original
     backtrace — observable here as the exception itself surviving a
     cancellation round unchanged). *)
  let pool = Pool.create ~num_workers:0 () in
  let job = Pool.new_job pool in
  Pool.submit_job pool job (fun () -> raise (Failure "original"));
  Pool.submit_job pool job (fun () -> ());
  Alcotest.check_raises "identity preserved" (Failure "original") (fun () ->
    Pool.join_job pool job);
  Pool.shutdown pool

let test_pool_job_faults_stay_in_job () =
  (* A fault injected at the executor's ["exec"] site belongs to the run's
     job: the run re-raises it, the job skips its queued tasks, and a job
     sharing the pool is untouched. *)
  let faults = Fault.plan ~rate:1. ~sleep:ignore ~seed:2 () in
  Pool.with_pool ~num_workers:0 (fun pool ->
    let hits = ref 0 and other_hits = ref 0 in
    let job = Pool.new_job pool and other = Pool.new_job pool in
    Pool.submit_job pool other (fun () -> incr other_hits);
    (match
       Dag_exec.run ~faults ~job ~pool ~num_tasks:3 ~in_degree:[| 0; 0; 0 |]
         ~successors:(fun _ -> [])
         ~execute:(fun _ -> incr hits)
         ()
     with
    | () -> Alcotest.fail "injected fault not raised by the run"
    | exception Fault.Injected _ -> ());
    Alcotest.(check int) "faulted job ran nothing" 0 !hits;
    Alcotest.(check int) "rest of the job skipped" 2 (Pool.job_skipped job);
    Pool.join_job pool other;
    Alcotest.(check int) "other job ran" 1 !other_hits)

(* Dag_exec: supervised retry with snapshot restore *)

let chain n =
  ( n,
    Array.init n (fun i -> if i = 0 then 0 else 1),
    fun i -> if i < n - 1 then [ i + 1 ] else [] )

let run_chain ?faults ?retry ?capture ~cells () =
  let n = Array.length cells in
  let num_tasks, in_degree, successors = chain n in
  Pool.with_pool ~num_workers:0 (fun pool ->
    Dag_exec.run ?faults ?retry ?capture ~pool ~num_tasks ~in_degree ~successors
      ~execute:(fun i -> cells.(i) <- cells.(i) +. 1.)
      ())

let test_dag_exec_transient_retry () =
  let cells = Array.make 8 0. in
  let faults = Fault.plan ~rate:1. ~kinds:[ Fault.Transient ] ~sleep:ignore ~seed:4 () in
  run_chain ~faults ~retry:(Retry.immediate ()) ~cells ();
  Alcotest.(check (array (float 0.))) "every task ran exactly once" (Array.make 8 1.) cells;
  Alcotest.(check int) "every task faulted once" 8 (Fault.injected faults)

let test_dag_exec_crash_double_applies_without_capture () =
  (* The demonstration the snapshot machinery exists for: a crash-after-write
     retried without restore double-applies the accumulation... *)
  let cells = Array.make 4 0. in
  let faults =
    Fault.plan ~rate:1. ~kinds:[ Fault.Crash_after_write ] ~sleep:ignore ~seed:4 ()
  in
  run_chain ~faults ~retry:(Retry.immediate ()) ~cells ();
  Alcotest.(check (array (float 0.)))
    "no capture: every increment applied twice" (Array.make 4 2.) cells;
  (* ...and the per-task snapshot makes the same run exact. *)
  let cells = Array.make 4 0. in
  let faults =
    Fault.plan ~rate:1. ~kinds:[ Fault.Crash_after_write ] ~sleep:ignore ~seed:4 ()
  in
  let capture i =
    let saved = cells.(i) in
    fun () -> cells.(i) <- saved
  in
  run_chain ~faults ~retry:(Retry.immediate ()) ~capture ~cells ();
  Alcotest.(check (array (float 0.)))
    "with capture: exactly once" (Array.make 4 1.) cells

let test_dag_exec_budget_exhausted_propagates () =
  let cells = Array.make 4 0. in
  let faults =
    Fault.plan ~rate:1. ~kinds:[ Fault.Transient ] ~fail_attempts:10 ~sleep:ignore
      ~seed:4 ()
  in
  match run_chain ~faults ~retry:(Retry.immediate ~max_attempts:2 ()) ~cells () with
  | () -> Alcotest.fail "expected Injected to propagate"
  | exception Fault.Injected { attempt; _ } ->
    Alcotest.(check int) "failed on the final attempt" 2 attempt;
    Alcotest.(check (float 0.)) "no task completed" 0. (Array.fold_left ( +. ) 0. cells)

(* Mp_cholesky: chaos equivalence and precision escalation *)

let spd ~nt ~nb =
  Tiled.init ~n:(nt * nb) ~nb (fun i j ->
    (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))

let test_cholesky_global_pivot_index () =
  (* Indefiniteness in block 1 must report the global row, not the local
     tile row. *)
  let nt = 2 and nb = 4 in
  let a =
    Tiled.init ~n:(nt * nb) ~nb (fun i j ->
      if i <> j then 0. else if i < nb then 1. else -1.)
  in
  Alcotest.check_raises "global pivot index" (Blas.Not_positive_definite nb)
    (fun () -> Chol.factorize ~pmap:(Pm.uniform ~nt Fp.Fp64) a)

let test_cholesky_chaos_equivalence () =
  (* Acceptance: a seeded chaos run at ≥10% transient rate completes and the
     recovered factor is bitwise identical to the fault-free run — under the
     serial pool and a real multi-domain one. *)
  let nt = 4 and nb = 8 in
  let pmap = Pm.two_level ~nt ~off_diag:Fp.Fp16_32 in
  let reference = spd ~nt ~nb in
  Chol.factorize ~pmap reference;
  List.iter
    (fun workers ->
      for seed = 0 to 4 do
        let a = spd ~nt ~nb in
        let faults =
          Fault.plan ~rate:0.3
            ~kinds:[ Fault.Transient; Fault.Crash_after_write ]
            ~sleep:ignore ~seed ()
        in
        Pool.with_pool ~num_workers:workers (fun pool ->
          Chol.factorize ~pool ~faults ~retry:(Retry.immediate ()) ~pmap a);
        Alcotest.(check (float 0.))
          (Printf.sprintf "seed %d, %d workers: bitwise identical" seed workers)
          0.
          (Tiled.rel_diff a ~reference)
      done)
    [ 0; 2 ]

let test_cholesky_crash_recovery_counters () =
  (* Crash-after-write faults run the kernel, then fail: only the snapshot
     rollback of the written tile keeps the retry from double-applying an
     update.  The recovery counters account for exactly the faulted tasks
     and the bytes of the tiles they rolled back (ragged last tile, so the
     byte sum depends on which tiles were restored). *)
  let nt = 4 and nb = 8 in
  let n = (nt * nb) - 3 in
  let make () =
    Tiled.init ~n ~nb (fun i j ->
      (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))
  in
  let pmap = Pm.two_level ~nt ~off_diag:Fp.Fp16_32 in
  let reference = make () in
  Chol.factorize ~pmap reference;
  List.iter
    (fun workers ->
      let a = make () in
      let faults =
        Fault.plan ~rate:0.3 ~kinds:[ Fault.Crash_after_write ] ~sleep:ignore ~seed:7 ()
      in
      let reg = Metrics.create () in
      Pool.with_pool ~num_workers:workers (fun pool ->
        Chol.factorize ~pool ~faults ~retry:(Retry.immediate ()) ~obs:reg ~pmap a);
      Alcotest.(check (float 0.)) "bitwise identical" 0. (Tiled.rel_diff a ~reference);
      let faulted = ref 0 and bytes = ref 0 in
      Cholesky_dag.iter (Cholesky_dag.create ~nt) (fun _ kind ->
        if Fault.decide faults ~site:"exec" ~task:(Task.name kind) ~attempt:1 <> None
        then begin
          let i, j = Task.write_tile kind in
          incr faulted;
          bytes := !bytes + (8 * Tiled.tile_rows a i * Tiled.tile_rows a j)
        end);
      let snap = Metrics.snapshot reg in
      Alcotest.(check bool) "some tasks faulted" true (!faulted > 0);
      Alcotest.(check int) "every fault injected" !faulted (Fault.injected faults);
      Alcotest.(check int) "cholesky.retries" !faulted (counter_of snap "cholesky.retries");
      Alcotest.(check int) "cholesky.restores" !faulted
        (counter_of snap "cholesky.restores");
      Alcotest.(check int) "cholesky.restored_bytes" !bytes
        (counter_of snap "cholesky.restored_bytes"))
    [ 0; 2 ]

let test_cholesky_pivot_escalation_recovers () =
  let nt = 4 and nb = 8 in
  let pmap = Pm.two_level ~nt ~off_diag:Fp.Fp16_32 in
  let reg = Metrics.create () in
  let a = spd ~nt ~nb in
  let faults = Fault.plan ~obs:reg ~pivot_rate:1. ~sleep:ignore ~seed:3 () in
  let report = Chol.factorize_robust ~faults ~obs:reg ~pmap a in
  Alcotest.(check bool) "factorized" true (report.Chol.outcome = Chol.Factorized);
  Alcotest.(check bool) "escalations recorded" true (report.Chol.escalations <> []);
  Alcotest.(check bool) "pivot injections fired" true (Fault.pivots faults > 0);
  (* The recovered factor equals a fault-free factorization under the map
     the final round actually used. *)
  let reference = spd ~nt ~nb in
  Chol.factorize ~pmap:report.Chol.pmap reference;
  Alcotest.(check (float 0.)) "equals fault-free run under escalated map" 0.
    (Tiled.rel_diff a ~reference);
  let snap = Metrics.snapshot reg in
  Alcotest.(check int) "recovery.band_escalations"
    (List.length
       (List.filter (fun e -> e.Chol.scope = Chol.Band) report.Chol.escalations))
    (counter_of snap "recovery.band_escalations")

let test_cholesky_escalation_reaches_full_map () =
  (* Injections armed on every round fire at each POTRF(k ≥ 1) whose band
     is still mixed: five such blocks outrun the budget of four band
     escalations and force the Band → Full progression. *)
  let nt = 6 and nb = 8 in
  let pmap = Pm.two_level ~nt ~off_diag:Fp.Fp16_32 in
  let a = spd ~nt ~nb in
  let faults =
    Fault.plan ~pivot_rate:1. ~fail_attempts:10 ~sleep:ignore ~seed:3 ()
  in
  let report = Chol.factorize_robust ~faults ~pmap a in
  Alcotest.(check bool) "factorized" true (report.Chol.outcome = Chol.Factorized);
  Alcotest.(check bool) "full escalation reached" true
    (List.exists (fun e -> e.Chol.scope = Chol.Full) report.Chol.escalations);
  Alcotest.(check bool) "final map is all FP64" true (Pm.all_fp64 report.Chol.pmap)

let test_cholesky_true_indefiniteness () =
  let nt = 2 and nb = 4 in
  let make () = Tiled.init ~n:(nt * nb) ~nb (fun i j -> if i = j then -1. else 0.) in
  let a = make () in
  let reg = Metrics.create () in
  (* Starts mixed: escalation walks band → full, then reports Indefinite. *)
  let report =
    Chol.factorize_robust ~obs:reg ~pmap:(Pm.two_level ~nt ~off_diag:Fp.Fp16_32) a
  in
  (match report.Chol.outcome with
  | Chol.Indefinite p -> Alcotest.(check int) "failing global pivot" 0 p
  | Chol.Factorized -> Alcotest.fail "indefinite matrix factorized");
  Alcotest.(check bool) "escalation was attempted first" true
    (report.Chol.escalations <> []);
  Alcotest.(check bool) "rounds > 1" true (report.Chol.rounds > 1);
  (* The input must be handed back untouched. *)
  Alcotest.(check (float 0.)) "matrix restored" 0.
    (Tiled.rel_diff a ~reference:(make ()));
  Alcotest.(check int) "recovery.indefinite" 1
    (counter_of (Metrics.snapshot reg) "recovery.indefinite")

(* What a supervised, escalating factorization narrates, pinned as a
   multiset: seeded transient and SDC injections, a forced pivot failure,
   the guard's detections and repairs, the retries and the escalation. *)
let test_cholesky_recovery_narration () =
  let module E = Geomix_obs.Events in
  let module Guard = Geomix_integrity.Guard in
  let nt = 4 and nb = 8 in
  let reg = Metrics.create () in
  let ring = E.ring (Metrics.events reg) in
  let faults =
    Fault.plan ~obs:reg ~rate:0.3 ~kinds:[ Fault.Transient; Fault.Sdc ]
      ~pivot_rate:0.3 ~sleep:ignore ~seed:1 ()
  in
  let guard = Guard.create ~obs:reg ~snapshots:true () in
  let report =
    Chol.factorize_robust ~faults ~retry:(Retry.immediate ~max_attempts:3 ())
      ~obs:reg ~integrity:guard ~pmap:(Pm.two_level ~nt ~off_diag:Fp.Fp16_32)
      (spd ~nt ~nb)
  in
  Alcotest.(check bool) "factorized" true (report.Chol.outcome = Chol.Factorized);
  let field e k =
    match List.assoc_opt k e.E.fields with
    | Some (Geomix_obs.Jsonlite.Str s) -> s
    | Some j -> Geomix_obs.Jsonlite.to_string ~indent:false j
    | None -> "-"
  in
  let key e =
    let detail =
      match (e.E.component, e.E.name) with
      | "fault", "inject" -> " " ^ field e "kind" ^ " " ^ field e "task"
      | "fault", "pivot" | "cholesky", "retry" -> " " ^ field e "task"
      | "integrity", _ -> " " ^ field e "task"
      | "recovery", "escalate" -> " " ^ field e "scope" ^ " " ^ field e "block"
      | _ -> ""
    in
    Printf.sprintf "%s %s.%s%s" (E.level_name e.E.level) e.E.component e.E.name detail
  in
  let pinned e =
    List.mem e.E.component [ "fault"; "integrity"; "recovery" ]
    || (e.E.component = "cholesky" && e.E.name = "retry")
  in
  let got =
    List.sort compare (List.map key (List.filter pinned (E.ring_events ring)))
  in
  (* Round 1 fails at the forced pivot of POTRF(3); the band-escalated
     round 2 redraws the same transient faults, but no SDC or pivot. *)
  let tagged prefix = List.map (fun task -> prefix ^ " " ^ task) in
  let retried =
    [ "GEMM(2,1,0)"; "GEMM(3,2,0)"; "GEMM(3,2,1)"; "POTRF(1)"; "SYRK(3,1)";
      "TRSM(2,1)"; "TRSM(3,1)" ]
  in
  let corrupted = [ "POTRF(3)"; "SYRK(2,1)"; "read(1,0)"; "read(3,0)"; "read(3,2)" ] in
  let expected =
    tagged "warn cholesky.retry" (retried @ retried)
    @ tagged "warn fault.inject transient" (retried @ retried)
    @ tagged "warn fault.inject sdc"
        [ "SYRK(2,0)"; "SYRK(3,2)"; "TRSM(1,0)"; "TRSM(3,0)"; "TRSM(3,2)" ]
    @ [ "warn fault.pivot POTRF(3)" ]
    @ tagged "warn integrity.sdc_detected" corrupted
    @ tagged "warn integrity.sdc_recovered" corrupted
    @ [ "warn recovery.escalate band 3" ]
  in
  Alcotest.(check (list string)) "narrated multiset" (List.sort compare expected) got

(* Likelihood: robust evaluation statuses *)

let test_likelihood_robust_clean () =
  let module Locations = Geomix_geostat.Locations in
  let module Covariance = Geomix_geostat.Covariance in
  let module Field = Geomix_geostat.Field in
  let module Likelihood = Geomix_geostat.Likelihood in
  let rng = Rng.create ~seed:5 in
  let locs = Locations.morton_sort (Locations.jittered_grid_2d ~rng ~n:49) in
  let cov =
    Covariance.sqexp ~nugget:Covariance.default_nugget ~sigma2:1. ~beta:0.1 ()
  in
  let z = Field.synthesize ~rng ~cov locs in
  let engine = Likelihood.mixed ~u_req:1e-6 ~nb:16 () in
  let plain = Likelihood.evaluate engine ~cov ~locs ~z in
  let robust = Likelihood.evaluate_robust engine ~cov ~locs ~z in
  Alcotest.(check bool) "clean status" true (robust.Likelihood.status = Likelihood.Clean);
  Alcotest.(check (float 0.)) "same loglik as evaluate" plain.Likelihood.loglik
    robust.Likelihood.loglik;
  Alcotest.(check (float 0.)) "loglik shortcut agrees" robust.Likelihood.loglik
    (Likelihood.loglik engine ~cov ~locs ~z)

(* Property: supervised faulted replay = fault-free run, across seeded
   interleavings of the ready set (the Explore virtual executor stands in
   for the OS scheduler). *)

let build_cholesky_dtd a = Dtd.cholesky ~nt:(Tiled.nt a) (Dtd.tile_kernel a)

let prop_faulted_replay_bitwise_identical =
  QCheck.Test.make
    ~name:"supervised faulted replay = fault-free run under any interleaving"
    ~count:20
    QCheck.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (sched_seed, fault_seed) ->
      let n = 32 and nb = 8 in
      let dense =
        Mat.init ~rows:n ~cols:n (fun i j ->
          (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))
      in
      let reference = Tiled.of_dense ~nb dense in
      let gref = build_cholesky_dtd reference in
      ignore
        (Explore.run_random (Explore.of_dtd gref) ~seed:sched_seed
           ~execute:(Dtd.execute_task gref));
      let a = Tiled.of_dense ~nb dense in
      let g = build_cholesky_dtd a in
      let nt = Tiled.nt a in
      let tile_of_key key = Tiled.tile a (key / nt) (key mod nt) in
      let faults =
        Fault.plan ~rate:0.3
          ~kinds:[ Fault.Transient; Fault.Crash_after_write ]
          ~sleep:ignore ~seed:fault_seed ()
      in
      let policy = Retry.immediate () in
      let execute id =
        let name = Dtd.name g id in
        let _, writes = Dtd.footprint g id in
        let saved = List.map (fun k -> (k, Mat.copy (tile_of_key k))) writes in
        let restore () =
          List.iter (fun (k, s) -> Mat.blit ~src:s ~dst:(tile_of_key k)) saved
        in
        Retry.run ~restore policy (fun ~attempt ->
          Fault.wrap faults ~site:"exec" ~task:name ~attempt (fun () ->
            Dtd.execute_task g id))
      in
      ignore (Explore.run_random (Explore.of_dtd g) ~seed:sched_seed ~execute);
      Tiled.rel_diff a ~reference = 0.)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_plan_deterministic;
          Alcotest.test_case "seed matters" `Quick test_plan_seed_matters;
          Alcotest.test_case "rate extremes" `Quick test_plan_rate_extremes;
          Alcotest.test_case "empirical rate" `Quick test_plan_empirical_rate;
          Alcotest.test_case "only filter" `Quick test_plan_only_filter;
          Alcotest.test_case "validation" `Quick test_plan_validates;
          Alcotest.test_case "wrap kinds" `Quick test_wrap_kinds;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff on virtual clock" `Quick
            test_retry_backoff_on_virtual_clock;
          Alcotest.test_case "delay arithmetic" `Quick test_retry_delay_for;
          Alcotest.test_case "decorrelating jitter" `Quick test_retry_jitter;
          Alcotest.test_case "jitter respects cap" `Quick
            test_retry_jitter_respects_cap;
          Alcotest.test_case "restore order" `Quick test_retry_restore_order;
          Alcotest.test_case "non-retryable" `Quick test_retry_not_retryable;
          Alcotest.test_case "budget exhausted" `Quick test_retry_budget_exhausted;
        ] );
      ( "pool fail-fast",
        [
          Alcotest.test_case "cancels pending (serial)" `Quick
            test_pool_cancels_pending_serial;
          Alcotest.test_case "cancels pending (parallel)" `Quick
            test_pool_cancels_pending_parallel;
          Alcotest.test_case "job faults stay in the job" `Quick
            test_pool_job_faults_stay_in_job;
          Alcotest.test_case "error identity preserved" `Quick
            test_pool_error_backtrace_preserved;
        ] );
      ( "dag_exec supervision",
        [
          Alcotest.test_case "transient + retry" `Quick test_dag_exec_transient_retry;
          Alcotest.test_case "crash needs snapshot" `Quick
            test_dag_exec_crash_double_applies_without_capture;
          Alcotest.test_case "budget exhausted propagates" `Quick
            test_dag_exec_budget_exhausted_propagates;
        ] );
      ( "cholesky recovery",
        [
          Alcotest.test_case "global pivot index" `Quick test_cholesky_global_pivot_index;
          Alcotest.test_case "chaos equivalence" `Quick test_cholesky_chaos_equivalence;
          Alcotest.test_case "crash + retry recovery counters" `Quick
            test_cholesky_crash_recovery_counters;
          Alcotest.test_case "pivot escalation recovers" `Quick
            test_cholesky_pivot_escalation_recovers;
          Alcotest.test_case "escalation reaches full map" `Quick
            test_cholesky_escalation_reaches_full_map;
          Alcotest.test_case "true indefiniteness" `Quick test_cholesky_true_indefiniteness;
          Alcotest.test_case "recovery narration" `Quick test_cholesky_recovery_narration;
        ] );
      ( "likelihood robustness",
        [ Alcotest.test_case "clean status" `Quick test_likelihood_robust_clean ] );
      ("replay property", [ qtest prop_faulted_replay_bitwise_identical ]);
    ]
