open Geomix_tile
module Fpformat = Geomix_precision.Fpformat
module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Blas_emul = Geomix_linalg.Blas_emul
module Buf_pool = Geomix_linalg.Buf_pool
module Pool = Geomix_parallel.Pool
module Dag_exec = Geomix_parallel.Dag_exec
module Task = Geomix_runtime.Task
module Cholesky_dag = Geomix_runtime.Cholesky_dag
module Fault = Geomix_fault.Fault
module Retry = Geomix_fault.Retry
module Metrics = Geomix_obs.Metrics
module Events = Geomix_obs.Events
module Span = Geomix_obs.Span
module Profile = Geomix_obs.Profile
module Guard = Geomix_integrity.Guard

let pidx i j = (i * (i + 1) / 2) + j

(* Narration onto the registry's event stream; nothing without a registry. *)
let emit obs ~component ?level name fields =
  match obs with
  | None -> ()
  | Some reg -> Events.emit ?level (Metrics.events reg) ~component ~name fields

let comm_conversion ?cmap pmap =
  let cm = match cmap with Some cm -> cm | None -> Comm_map.compute pmap in
  if Comm_map.nt cm <> Precision_map.nt pmap then
    invalid_arg "Mp_cholesky.comm_conversion: comm map / precision map tile mismatch";
  fun i j ->
    if Comm_map.strategy cm i j = Comm_map.Stc then Some (Comm_map.comm_scalar cm i j)
    else None

(* One factorization attempt.  [fault_round] feeds the attempt slot of the
   pivot and SDC fault decisions, so each {!factorize_robust} round redraws
   independently; a plain {!factorize} is round 1. *)
let factorize_round ?pool ?profile ?faults ?retry ?obs ?integrity ?cmap ?observe
    ?job ~fault_round ~pmap a =
  let ntiles = Tiled.nt a in
  if Precision_map.nt pmap <> ntiles then
    invalid_arg "Mp_cholesky.factorize: precision map / matrix tile mismatch";
  (* The conversion a publish applies to produce the broadcast form:
     [None] means consumers read the stored tile itself. *)
  let comm_conversion = comm_conversion ?cmap pmap in
  let span = Option.bind job Pool.job_span in
  let nb = Tiled.nb a in
  let dag = Cholesky_dag.create ~nt:ntiles in
  (* Range instrumentation: hand each kernel's freshly written FP64 working
     tile to the observer (before any storage/transfer rounding), leaving
     the factorization itself bit-identical. *)
  let note_range =
    match observe with None -> fun ~i:_ ~j:_ _ -> () | Some f -> f
  in
  let kernel_precision i j = Precision_map.get pmap i j in
  let exec_prec kind = Task.exec_precision ~kernel_precision kind in
  (* Shipped form of each broadcast tile: what consumers read.  Written once
     by the producing POTRF/TRSM and read concurrently afterwards — the DAG
     ordering makes this race-free. *)
  let npairs = ntiles * (ntiles + 1) / 2 in
  let shipped : Mat.t option array = Array.make npairs None in
  (* Tile identities for the integrity guard: stored tiles in [0, npairs),
     broadcast (shipped) forms offset by npairs.  Stamps from a previous
     factorization of different data are meaningless, hence the reset. *)
  let stored_key i j = pidx i j in
  let ship_key i j = npairs + pidx i j in
  (match integrity with Some g -> Guard.reset g | None -> ());
  (* The broadcast forms this round allocated — Algorithm 2's conversions,
     SDC copies and recomputed payloads.  A TTC slot is the stored tile
     itself and is never among them.  They go back to the pool once the
     round has ended, when no task can still read them. *)
  let owned = Atomic.make [] in
  let rec own m =
    let l = Atomic.get owned in
    if Atomic.compare_and_set owned l (m :: l) then m else own m
  in
  let shipped_form i j =
    let tile = Tiled.tile a i j in
    match comm_conversion i j with
    | None -> tile
    | Some s -> own (Buf_pool.rounded s tile)
  in
  let publish i j =
    let tile = Tiled.tile a i j in
    let storage = Precision_map.storage pmap i j in
    let task = Printf.sprintf "publish(%d,%d)" i j in
    (* Stamp the FP64 working values, then carry the stamp across each
       lawful conversion with the conversion-tolerant fingerprint and
       re-stamp the exact bytes on the far side — the storage
       down-convert, and (under STC) Algorithm 2's transfer format. *)
    (match integrity with
    | None -> ()
    | Some g -> Guard.stamp g ~key:(stored_key i j) tile);
    Mat.round_inplace storage tile;
    (match integrity with
    | None -> ()
    | Some g ->
      Guard.derive g ~from_key:(stored_key i j) ~key:(stored_key i j)
        ~scalar:storage ~task tile);
    let form = shipped_form i j in
    (match integrity with
    | None -> ()
    | Some g ->
      let scalar =
        match comm_conversion i j with None -> Fpformat.S_fp64 | Some s -> s
      in
      Guard.derive g ~from_key:(stored_key i j) ~key:(ship_key i j) ~scalar ~task
        form);
    shipped.(pidx i j) <- Some form
  in
  (* Detected corruption of a stored tile: repair from the guard snapshot
     and re-verify, else escalate — Corrupt is non-retryable by design. *)
  let recover_stored g ~task i j =
    let key = stored_key i j in
    let tile = Tiled.tile a i j in
    if not (Guard.check g ~key tile) then begin
      Guard.note_detected g ~key ~task;
      if Guard.restore g ~key tile && Guard.check g ~key tile then
        Guard.note_recovered g ~key ~task
      else Guard.corrupt g ~key ~task "stored tile corrupted"
    end
  in
  (* Detected corruption of a broadcast payload: recompute it from the
     (separately guarded) stored tile — the republish a distributed
     runtime would request from the producer — and re-verify. *)
  let recover_shipped g ~task i j m =
    let key = ship_key i j in
    if Guard.check g ~key m then m
    else begin
      Guard.note_detected g ~key ~task;
      let fresh = shipped_form i j in
      if Guard.check g ~key fresh then begin
        shipped.(pidx i j) <- Some fresh;
        Guard.note_recovered g ~key ~task;
        fresh
      end
      else Guard.corrupt g ~key ~task "broadcast payload unrecoverable"
    end
  in
  let verify_inout kind i j =
    match integrity with
    | None -> ()
    | Some g -> recover_stored g ~task:(Task.name kind) i j
  in
  let stamp_stored i j =
    match integrity with
    | None -> ()
    | Some g -> Guard.stamp g ~key:(stored_key i j) (Tiled.tile a i j)
  in
  (* RAW-edge motion accounting at the consumption site: every [read] of
     a broadcast payload ships [scalar_bytes] per element in the form
     Algorithm 2 selected (the storage scalar under TTC), against an
     8-byte FP64-equivalent baseline.  The registry counters and the
     per-request span increment from the same call with the same values,
     so a fully-sampled traced run conserves the aggregate totals
     bitwise. *)
  let shipped_scalar i j =
    match comm_conversion i j with
    | Some s -> s
    | None -> Precision_map.storage pmap i j
  in
  let note_ship =
    let span_note =
      match span with
      | None -> fun ~scalar:_ ~bytes:_ ~fp64:_ -> ()
      | Some sp ->
        fun ~scalar ~bytes ~fp64 ->
          Span.note_transfer ~prec:(Fpformat.scalar_name scalar) sp ~bytes
            ~fp64_bytes:fp64
    in
    match obs with
    | None -> (
      match span with None -> None | Some _ -> Some span_note)
    | Some reg ->
      let shipped_b = Metrics.counter reg "cholesky.shipped_bytes" in
      let shipped_fp64 = Metrics.counter reg "cholesky.shipped_bytes_fp64" in
      let edges = Metrics.counter reg "cholesky.shipped_edges" in
      let per_scalar =
        List.map
          (fun s ->
            ( s,
              Metrics.counter reg
                ("cholesky.shipped_bytes." ^ Fpformat.scalar_name s) ))
          Fpformat.all_scalars
      in
      Some
        (fun ~scalar ~bytes ~fp64 ->
          Metrics.add shipped_b bytes;
          Metrics.add shipped_fp64 fp64;
          Metrics.incr edges;
          (match List.assoc_opt scalar per_scalar with
          | Some c -> Metrics.add c bytes
          | None -> ());
          span_note ~scalar ~bytes ~fp64)
  in
  let read i j =
    let m =
      match shipped.(pidx i j) with
      | Some m -> (
        match integrity with
        | None -> m
        | Some g -> recover_shipped g ~task:(Printf.sprintf "read(%d,%d)" i j) i j m)
      | None -> assert false (* DAG ordering guarantees the producer ran *)
    in
    (match note_ship with
    | None -> ()
    | Some f ->
      let el = Mat.rows m * Mat.cols m in
      let scalar = shipped_scalar i j in
      f ~scalar ~bytes:(Fpformat.scalar_bytes scalar * el) ~fp64:(8 * el));
    m
  in
  (* Silent-data-corruption injection (chaos --sdc).  A drawn corruption is
     always applied to a fresh copy whose pointer replaces the slot: under
     TTC the slot aliases the stored tile, and in-place damage would
     corrupt the factor itself rather than the payload in transit. *)
  let flip_bit m ~bit ~lane =
    let rows = Mat.rows m in
    let k = lane mod (rows * Mat.cols m) in
    let i = k mod rows and j = k / rows in
    let bits = Int64.bits_of_float (Mat.get m i j) in
    Mat.set m i j (Int64.float_of_bits (Int64.logxor bits (Int64.shift_left 1L bit)))
  in
  let corrupt_shipped kind i j =
    match faults with
    | None -> ()
    | Some f -> (
      match Fault.sdc_decide f ~task:(Task.name kind) ~attempt:fault_round with
      | None -> ()
      | Some sdc ->
        let p = pidx i j in
        let current = match shipped.(p) with Some m -> m | None -> assert false in
        let bitflipped bit lane =
          let c = own (Buf_pool.copy current) in
          flip_bit c ~bit ~lane;
          c
        in
        let bad =
          match sdc with
          | Fault.Bitflip { bit; lane } -> bitflipped bit lane
          | Fault.Tile_swap { lane } -> (
            (* A deterministic impostor: a broadcast form this task's DAG
               predecessors are guaranteed to have published — TRSM(m,k)
               misroutes its panel (k,k), POTRF(k>0) its band tile
               (k,k−1).  Shape mismatch (ragged last tile) or POTRF(0)
               degrade to a bit flip. *)
            let cand =
              if i <> j then shipped.(pidx j j)
              else if i > 0 then shipped.(pidx i (i - 1))
              else None
            in
            match cand with
            | Some m'
              when Mat.rows m' = Mat.rows current && Mat.cols m' = Mat.cols current
              ->
              own (Buf_pool.copy m')
            | _ -> bitflipped 52 lane)
        in
        shipped.(p) <- Some bad)
  in
  (* SYRK/GEMM publish nothing; their SDC strikes the accumulator tile in
     memory instead (in place — that is the corruption).  [Tile_swap] has
     no payload to misroute here and degrades to an exponent-bit flip. *)
  let corrupt_stored kind i j =
    match faults with
    | None -> ()
    | Some f -> (
      match Fault.sdc_decide f ~task:(Task.name kind) ~attempt:fault_round with
      | None -> ()
      | Some (Fault.Bitflip { bit; lane }) -> flip_bit (Tiled.tile a i j) ~bit ~lane
      | Some (Fault.Tile_swap { lane }) -> flip_bit (Tiled.tile a i j) ~bit:52 ~lane)
  in
  (* A pivot failure is plausibly precision-caused only when block k's row
     band carries sub-FP64 work; forced injections respect the same gate,
     so escalating the band to FP64 genuinely cures them. *)
  let band_low_precision k =
    let low = ref (Precision_map.get pmap k k <> Fpformat.Fp64) in
    for j = 0 to k - 1 do
      if Precision_map.get pmap k j <> Fpformat.Fp64 then low := true
    done;
    !low
  in
  let emit = emit obs ~component:"cholesky" in
  let execute id =
    match Cholesky_dag.kind_of dag id with
    | Task.Potrf k ->
      (match faults with
      | Some f
        when band_low_precision k
             && Fault.pivot_failure f ~task:(Task.name (Task.Potrf k))
                  ~attempt:fault_round ->
        raise (Blas.Not_positive_definite (k * nb))
      | _ -> ());
      let tile = Tiled.tile a k k in
      verify_inout (Task.Potrf k) k k;
      (* Re-raise pivot failures with the global row index, so recovery can
         identify the offending diagonal block as [pivot / nb]. *)
      (try Blas_emul.potrf_lower ~prec:(exec_prec (Task.Potrf k)) tile
       with Blas.Not_positive_definite p ->
         raise (Blas.Not_positive_definite ((k * nb) + p)));
      note_range ~i:k ~j:k tile;
      publish k k;
      corrupt_shipped (Task.Potrf k) k k;
      (* The panel factorization completing is the milestone that releases
         the whole trailing update of step [k]. *)
      emit "panel"
        [
          ("k", Events.fint k);
          ("prec", Events.fstr (Fpformat.name (exec_prec (Task.Potrf k))));
        ]
    | Task.Trsm (m, k) ->
      let b = Tiled.tile a m k in
      verify_inout (Task.Trsm (m, k)) m k;
      Blas_emul.trsm_right_lower_trans
        ~prec:(exec_prec (Task.Trsm (m, k)))
        ~l:(read k k) b;
      note_range ~i:m ~j:k b;
      publish m k;
      corrupt_shipped (Task.Trsm (m, k)) m k
    | Task.Syrk (m, k) ->
      let c = Tiled.tile a m m in
      verify_inout (Task.Syrk (m, k)) m m;
      Blas_emul.syrk_lower ~prec:(exec_prec (Task.Syrk (m, k))) ~alpha:(-1.) (read m k)
        ~beta:1. c;
      note_range ~i:m ~j:m c;
      stamp_stored m m;
      corrupt_stored (Task.Syrk (m, k)) m m
    | Task.Gemm (m, n, k) ->
      let c = Tiled.tile a m n in
      verify_inout (Task.Gemm (m, n, k)) m n;
      Blas_emul.gemm_nt
        ~prec:(exec_prec (Task.Gemm (m, n, k)))
        ~alpha:(-1.) (read m k) (read n k) ~beta:1. c;
      note_range ~i:m ~j:n c;
      stamp_stored m n;
      corrupt_stored (Task.Gemm (m, n, k)) m n
  in
  let task_label id = Task.name (Cholesky_dag.kind_of dag id) in
  let task_prec id = Fpformat.name (exec_prec (Cholesky_dag.kind_of dag id)) in
  (* The one per-task record of a measured run: the profile measure, the
     stream's task_begin/task_end pair and the span's task count, all from
     the same floats.  Uninstrumented runs, and runs whose registry stream
     has no sink, pass no hook and read no clock. *)
  let narrating =
    match obs with
    | Some reg -> Events.enabled (Metrics.events reg) Events.Debug
    | None -> false
  in
  let on_task =
    match (profile, narrating, span) with
    | None, false, None -> None
    | _ ->
      Some
        (fun ~id ~worker ~start ~stop ->
          let label = task_label id in
          (match profile with
          | None -> ()
          | Some c ->
            Profile.record c
              {
                Profile.id;
                label;
                cls = Profile.class_of_label label;
                prec = task_prec id;
                worker;
                start;
                stop;
              });
          if narrating then begin
            (* Both events are emitted at completion but carry the measured
               run-relative span in ["at"], so replaying the log rebuilds
               the profile's makespan exactly. *)
            let base =
              [ ("task", Events.fint id); ("label", Events.fstr label);
                ("worker", Events.fint worker) ]
            in
            emit ~level:Events.Debug "task_begin" (base @ [ ("at", Events.fnum start) ]);
            emit ~level:Events.Debug "task_end"
              (base @ [ ("at", Events.fnum stop); ("dur", Events.fnum (stop -. start)) ])
          end;
          match span with None -> () | Some sp -> Span.note_task sp)
  in
  (* Indefiniteness is deterministic under restore-and-re-run, so retrying
     it burns the budget for nothing: it is a precision problem, handled by
     escalation above this level, not an execution fault. *)
  let retry =
    Option.map
      (fun p ->
        {
          p with
          Retry.retryable =
            (fun e ->
              match e with
              | Blas.Not_positive_definite _ -> false
              (* Re-running a consumer on corrupted inputs reproduces the
                 wrong answer — integrity violations escalate instead. *)
              | Guard.Corrupt _ -> false
              | e -> p.Retry.retryable e);
        })
      retry
  in
  let metric_retry, note_restore =
    match obs with
    | None -> (None, fun _ -> ())
    | Some reg ->
      let retries = Metrics.counter reg "cholesky.retries" in
      let restores = Metrics.counter reg "cholesky.restores" in
      let restored = Metrics.counter reg "cholesky.restored_bytes" in
      ( Some (fun ~id:_ ~attempt:_ _ -> Metrics.incr retries),
        fun (m : Mat.t) ->
          Metrics.incr restores;
          Metrics.add restored (8 * Mat.rows m * Mat.cols m) )
  in
  let note_retry =
    match (metric_retry, span) with
    | None, None -> None
    | _ ->
      Some
        (fun ~id ~attempt exn ->
          (match metric_retry with Some f -> f ~id ~attempt exn | None -> ());
          (match span with Some sp -> Span.note_retry sp | None -> ());
          emit ~level:Events.Warn "retry"
            ([
               ("task", Events.fstr (task_label id));
               ("attempt", Events.fint attempt);
               ("error", Events.fstr (Printexc.to_string exn));
             ]
            @
            match retry with
            | None -> []
            | Some p -> [ ("backoff_s", Events.fnum (Retry.delay_for p ~attempt)) ]))
  in
  (* Snapshot of a task's written footprint: its single INOUT tile.  The
     shipped form needs no capture — a re-run republishes it from the
     restored tile. *)
  let capture id =
    let i, j = Task.write_tile (Cholesky_dag.kind_of dag id) in
    (* Verify — and if corrupted, repair — the tile before snapshotting it:
       the snapshot is blitted back and re-stamped on retry, so capturing a
       corrupted tile here would launder the corruption past the guard. *)
    (match integrity with
    | None -> ()
    | Some g ->
      recover_stored g ~task:(Task.name (Cholesky_dag.kind_of dag id)) i j);
    let saved = Mat.copy (Tiled.tile a i j) in
    fun () ->
      Mat.blit ~src:saved ~dst:(Tiled.tile a i j);
      (* The rollback invalidates whatever stamp the failed attempt left on
         this tile; re-stamp the restored bytes so the re-execution's
         inbound verification doesn't read the crash as a corruption. *)
      (match integrity with
      | None -> ()
      | Some g -> Guard.stamp g ~key:(stored_key i j) (Tiled.tile a i j));
      note_restore saved
  in
  let run pool =
    Dag_exec.run ?on_task
      ~task_name:(fun id -> Task.name (Cholesky_dag.kind_of dag id))
      ?faults ?retry ~capture ?on_retry:note_retry ?job ~pool
      ~num_tasks:(Cholesky_dag.num_tasks dag)
      ~in_degree:(Cholesky_dag.in_degree dag)
      ~successors:(Cholesky_dag.successors dag)
      ~execute ()
  in
  (* [run] returns or raises only once every task of the round has
     settled, so on either path no task still reads an owned form. *)
  Fun.protect
    ~finally:(fun () -> List.iter Buf_pool.give (Atomic.get owned))
    (fun () ->
      (match pool with
      | Some pool -> run pool
      | None -> Pool.with_pool ~num_workers:0 run);
      (* Terminal ABFT sweep: every stored tile of the factor, and every
         broadcast payload still in flight, re-verified before the result
         is handed back — a corruption whose consumer never ran (a payload
         with no remaining readers) cannot escape silently. *)
      match integrity with
      | None -> ()
      | Some g ->
        for i = 0 to ntiles - 1 do
          for j = 0 to i do
            let task = Printf.sprintf "final(%d,%d)" i j in
            recover_stored g ~task i j;
            match shipped.(pidx i j) with
            | None -> ()
            | Some m -> ignore (recover_shipped g ~task i j m)
          done
        done);
  (* Clear the stale upper triangles of the diagonal tiles so the tiled
     matrix now represents the factor L alone. *)
  for k = 0 to ntiles - 1 do
    Mat.zero_upper (Tiled.tile a k k)
  done

let factorize ?pool ?profile ?faults ?retry ?obs ?integrity ?cmap ?observe
    ?job ~pmap a =
  factorize_round ?pool ?profile ?faults ?retry ?obs ?integrity ?cmap ?observe
    ?job ~fault_round:1 ~pmap a

(* Precision-escalation recovery. *)

type scope = Band | Full
type escalation = { block : int; scope : scope }
type outcome = Factorized | Indefinite of int

type report = {
  outcome : outcome;
  escalations : escalation list;
  rounds : int;
  pmap : Precision_map.t;
}

(* The restore copy is one pooled buffer per matrix, the stored tiles back
   to back in [Tiled.iter_lower] order: one [Bigarray] for the whole copy,
   not one per tile.  [each_view a buf f] calls [f m v] for every stored
   tile [m] of [a] and its view [v] in [buf]. *)
let each_view a buf f =
  let off = ref 0 in
  Tiled.iter_lower a (fun ~i:_ ~j:_ m ->
    let rows = Mat.rows m and cols = Mat.cols m in
    f m (Mat.view buf ~off:!off ~rows ~cols);
    off := !off + (rows * cols))

let snapshot a =
  let total = ref 0 in
  Tiled.iter_lower a (fun ~i:_ ~j:_ m -> total := !total + (Mat.rows m * Mat.cols m));
  let buf = Buf_pool.take ~rows:!total ~cols:1 in
  each_view a buf (fun m v -> Mat.blit ~src:m ~dst:v);
  buf

let restore ~from a = each_view a from (fun m v -> Mat.blit ~src:v ~dst:m)

(* Band-scoped retries before the whole map is promoted. *)
let band_budget = 4

let factorize_robust ?pool ?profile ?faults ?retry ?obs ?integrity ?cmap ?job
    ~pmap a =
  let note_band, note_full, note_indefinite =
    match obs with
    | None -> (ignore, ignore, ignore)
    | Some reg ->
      let band = Metrics.counter reg "recovery.band_escalations" in
      let full = Metrics.counter reg "recovery.full_escalations" in
      let indef = Metrics.counter reg "recovery.indefinite" in
      ( (fun () -> Metrics.incr band),
        (fun () -> Metrics.incr full),
        fun () -> Metrics.incr indef )
  in
  let emit = emit obs ~component:"recovery" in
  let original = snapshot a in
  let rec go round pmap events bands =
    (* The caller's memoized communication map matches the original
       precision map only; escalated rounds run under a promoted map and
       must re-derive their transfers. *)
    let cmap = if round = 1 then cmap else None in
    match
      factorize_round ?pool ?profile ?faults ?retry ?obs ?integrity ?cmap
        ?job ~fault_round:round ~pmap a
    with
    | () -> { outcome = Factorized; escalations = List.rev events; rounds = round; pmap }
    | exception exn -> (
      let bt = Printexc.get_raw_backtrace () in
      (* Leave the input unchanged on every failure path: recovery re-runs
         from the pristine matrix, and a caller that sees Indefinite (or a
         propagated execution fault) gets its matrix back. *)
      restore ~from:original a;
      match exn with
      | Blas.Not_positive_definite p ->
        if Precision_map.all_fp64 pmap then begin
          note_indefinite ();
          emit ~level:Events.Error "indefinite" [ ("pivot", Events.fint p) ];
          {
            outcome = Indefinite p;
            escalations = List.rev events;
            rounds = round;
            pmap;
          }
        end
        else
          let k = p / Tiled.nb a in
          if List.mem k bands || List.length events >= band_budget then begin
            note_full ();
            emit ~level:Events.Warn "escalate"
              [
                ("block", Events.fint k);
                ("scope", Events.fstr "full");
                ("round", Events.fint round);
              ];
            go (round + 1)
              (Precision_map.uniform ~nt:(Precision_map.nt pmap) Fpformat.Fp64)
              ({ block = k; scope = Full } :: events)
              bands
          end
          else begin
            note_band ();
            emit ~level:Events.Warn "escalate"
              [
                ("block", Events.fint k);
                ("scope", Events.fstr "band");
                ("round", Events.fint round);
              ];
            go (round + 1)
              (Precision_map.escalate_band pmap k)
              ({ block = k; scope = Band } :: events)
              (k :: bands)
          end
      | exn -> Printexc.raise_with_backtrace exn bt)
  in
  Fun.protect ~finally:(fun () -> Buf_pool.give original) (fun () -> go 1 pmap [] [])

let solve_lower l b =
  let ntiles = Tiled.nt l and nb = Tiled.nb l in
  assert (Array.length b = Tiled.n l);
  let y = Array.copy b in
  for i = 0 to ntiles - 1 do
    let ri = i * nb and rows = Tiled.tile_rows l i in
    let bi = Array.sub y ri rows in
    for j = 0 to i - 1 do
      let xj = Array.sub y (j * nb) (Tiled.tile_rows l j) in
      let contrib = Mat.matvec (Tiled.tile l i j) xj in
      Array.iteri (fun p v -> bi.(p) <- bi.(p) -. v) contrib
    done;
    let yi = Geomix_linalg.Blas.trsv_lower ~l:(Tiled.tile l i i) bi in
    Array.blit yi 0 y ri rows
  done;
  y

let solve_lower_trans l b =
  let ntiles = Tiled.nt l and nb = Tiled.nb l in
  assert (Array.length b = Tiled.n l);
  let x = Array.copy b in
  for i = ntiles - 1 downto 0 do
    let ri = i * nb and rows = Tiled.tile_rows l i in
    let bi = Array.sub x ri rows in
    for j = i + 1 to ntiles - 1 do
      (* Tile (j, i) of L contributes L(j,i)ᵀ·x_j to row block i of Lᵀx. *)
      let xj = Array.sub x (j * nb) (Tiled.tile_rows l j) in
      let contrib = Mat.matvec_trans (Tiled.tile l j i) xj in
      Array.iteri (fun p v -> bi.(p) <- bi.(p) -. v) contrib
    done;
    let xi = Geomix_linalg.Blas.trsv_lower_trans ~l:(Tiled.tile l i i) bi in
    Array.blit xi 0 x ri rows
  done;
  x

let log_det l =
  let acc = ref 0. in
  for i = 0 to Tiled.nt l - 1 do
    let tile = Tiled.tile l i i in
    for p = 0 to Mat.rows tile - 1 do
      acc := !acc +. log (Mat.get tile p p)
    done
  done;
  2. *. !acc
