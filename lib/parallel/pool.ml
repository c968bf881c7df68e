module Metrics = Geomix_obs.Metrics
module Events = Geomix_obs.Events

(* A job is the pool's only completion scope: every thunk runs under one.
   Its pending count, first-error slot and condition variable are guarded
   by the pool mutex.  An exception escaping a thunk lands in that thunk's
   job, whose queued thunks are then skipped at dequeue; other jobs sharing
   the pool are untouched. *)
type job = {
  job_done : Condition.t;
  mutable pending : int;
  mutable error : (exn * Printexc.raw_backtrace) option;
  mutable skipped : int;
  mutable narrated : int; (* skips already reported on the event stream *)
  span : Geomix_obs.Span.t option;
      (* per-request trace context: every item run under this job adds
         its queue-wait and run time to the span *)
}

type item = { thunk : unit -> unit; submitted : float; job : job }

(* Metric cells resolved once at pool creation so the hot path never takes
   the registry lock. *)
type obs_state = {
  tasks_total : Metrics.counter;
  queue_wait : Metrics.histogram;
  run_time : Metrics.histogram;
  idle_waits : Metrics.counter;
  queue_peak : Metrics.gauge;
  cancelled_total : Metrics.counter;
  worker_tasks : Metrics.counter array;
  events : Events.t;
}

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : item Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
  serial : bool;
  obs : obs_state option;
}

let emit t ?level name fields =
  match t.obs with
  | None -> ()
  | Some o -> Events.emit ?level o.events ~component:"pool" ~name fields

let make_obs reg n =
  Metrics.set (Metrics.gauge reg "pool.workers") (float_of_int n);
  {
    tasks_total = Metrics.counter reg "pool.tasks";
    queue_wait = Metrics.histogram reg "pool.queue_wait_s";
    run_time = Metrics.histogram reg "pool.run_s";
    idle_waits = Metrics.counter reg "pool.idle_waits";
    queue_peak = Metrics.gauge reg "pool.queue_peak";
    cancelled_total = Metrics.counter reg "pool.cancelled";
    worker_tasks =
      Array.init (Stdlib.max 1 n) (fun i ->
          Metrics.counter reg (Printf.sprintf "pool.worker%d.tasks" i));
    events = Metrics.events reg;
  }

let settle_locked job =
  job.pending <- job.pending - 1;
  if job.pending = 0 then Condition.broadcast job.job_done

(* The settle step, one lock per executed item: keep the job's first error
   (later ones are dropped in its favour) and retire the item. *)
let settle t job err =
  Mutex.lock t.mutex;
  (match err with
  | Some (exn, _) when job.error = None ->
    job.error <- err;
    emit t ~level:Events.Error "error"
      [ ("error", Events.fstr (Printexc.to_string exn)) ]
  | _ -> ());
  settle_locked job;
  Mutex.unlock t.mutex

(* Run a dequeued item on behalf of [worker], recording queue-wait and
   run-time when the pool is instrumented or the job traced. *)
let run_item t ~worker item =
  let exec () =
    match item.thunk () with
    | () -> None
    | exception exn -> Some (exn, Printexc.get_raw_backtrace ())
  in
  let err =
    match (t.obs, item.job.span) with
    | None, None -> exec ()
    | obs, span ->
      (* One gettimeofday pair serves both the registry histograms and the
         job's span — tracing adds no extra clock reads. *)
      let t0 = Unix.gettimeofday () in
      let queue_s = t0 -. item.submitted in
      (match obs with Some o -> Metrics.observe o.queue_wait queue_s | None -> ());
      let err = exec () in
      let run_s = Unix.gettimeofday () -. t0 in
      (match obs with
      | Some o ->
        Metrics.observe o.run_time run_s;
        Metrics.incr o.tasks_total;
        Metrics.incr o.worker_tasks.(worker mod Array.length o.worker_tasks)
      | None -> ());
      (match span with
      | Some sp -> Geomix_obs.Span.note_exec sp ~queue_s ~run_s
      | None -> ());
      err
  in
  settle t item.job err

(* Pop the head item — pool lock held on entry, released on return — and
   run it, unless its job has already failed: then it is skipped and
   settled inside this same dequeue lock. *)
let run_next t ~worker =
  let item = Queue.pop t.queue in
  let job = item.job in
  if job.error = None then begin
    Mutex.unlock t.mutex;
    run_item t ~worker item
  end
  else begin
    job.skipped <- job.skipped + 1;
    (match t.obs with Some o -> Metrics.incr o.cancelled_total | None -> ());
    settle_locked job;
    Mutex.unlock t.mutex
  end

let worker_loop t worker () =
  emit t ~level:Events.Debug "worker_start" [ ("worker", Events.fint worker) ];
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stopping do
      (match t.obs with Some o -> Metrics.incr o.idle_waits | None -> ());
      Condition.wait t.nonempty t.mutex
    done;
    if Queue.is_empty t.queue then begin
      Mutex.unlock t.mutex;
      emit t ~level:Events.Debug "worker_stop" [ ("worker", Events.fint worker) ]
    end
    else begin
      run_next t ~worker;
      loop ()
    end
  in
  loop ()

let create ?obs ?num_workers () =
  let n =
    match num_workers with
    | Some n -> Stdlib.max 0 n
    | None -> Stdlib.max 0 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [||];
      serial = n = 0;
      obs = Option.map (fun reg -> make_obs reg n) obs;
    }
  in
  emit t "create" [ ("workers", Events.fint n) ];
  if n > 0 then t.workers <- Array.init n (fun i -> Domain.spawn (worker_loop t i));
  t

let num_workers t = Array.length t.workers

(* Dense index of the calling domain among the pool's workers; 0 for the
   caller domain of a serial pool (and for any foreign domain). *)
let self_index t =
  let self = Domain.self () in
  let n = Array.length t.workers in
  let rec find i =
    if i >= n then 0
    else if Domain.get_id t.workers.(i) = self then i
    else find (i + 1)
  in
  find 0

let new_job ?span _t =
  {
    job_done = Condition.create ();
    pending = 0;
    error = None;
    skipped = 0;
    narrated = 0;
    span;
  }

let job_span job = job.span

let job_skipped job = job.skipped

let submit_job t job thunk =
  let submitted =
    if t.obs <> None || job.span <> None then Unix.gettimeofday () else 0.
  in
  Mutex.lock t.mutex;
  assert (not t.stopping);
  job.pending <- job.pending + 1;
  Queue.push { thunk; submitted; job } t.queue;
  (match t.obs with
  | Some o -> Metrics.set_max o.queue_peak (float_of_int (Queue.length t.queue))
  | None -> ());
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

(* Serial pools have no workers, so [join_job] and [shutdown] drain the
   queue on the caller — items of other jobs included, or they would
   starve.  Pool lock held on entry and exit. *)
let drain_one_locked t =
  run_next t ~worker:0;
  Mutex.lock t.mutex

let join_job t job =
  Mutex.lock t.mutex;
  while job.pending > 0 do
    (* On a serial pool with an empty queue, another caller thread is
       running this job's last item; its settle signals [job_done]. *)
    if t.serial && not (Queue.is_empty t.queue) then drain_one_locked t
    else Condition.wait job.job_done t.mutex
  done;
  let err = job.error in
  job.error <- None;
  let skipped = job.skipped - job.narrated in
  job.narrated <- job.skipped;
  Mutex.unlock t.mutex;
  match err with
  | None -> ()
  | Some (exn, bt) ->
    if skipped > 0 then
      emit t ~level:Events.Warn "cancelled" [ ("count", Events.fint skipped) ];
    Printexc.raise_with_backtrace exn bt

let shutdown t =
  Mutex.lock t.mutex;
  if t.serial then begin
    while not (Queue.is_empty t.queue) do
      drain_one_locked t
    done;
    Mutex.unlock t.mutex
  end
  else if not t.stopping then begin
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    emit t "shutdown" []
  end
  else Mutex.unlock t.mutex

let with_pool ?obs ?num_workers f =
  let t = create ?obs ?num_workers () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
