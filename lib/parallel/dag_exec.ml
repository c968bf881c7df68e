module Fault = Geomix_fault.Fault
module Retry = Geomix_fault.Retry

(* Wrap the task body in the supervision envelope: seeded fault injection
   around every attempt, bounded retry between attempts, and — when the
   caller can snapshot a task's written footprint — restoration of that
   footprint before each re-execution, which is what makes re-running an
   in-place task sound. *)
let supervise ~faults ~retry ~capture ~task_name ~on_retry execute =
  match (faults, retry) with
  | None, None -> execute
  | _ ->
    let policy =
      match retry with Some p -> p | None -> { Retry.default with max_attempts = 1 }
    in
    fun id ->
      let name = task_name id in
      let restore =
        if policy.Retry.max_attempts > 1 then
          Option.map (fun cap -> cap id) capture
        else None
      in
      let on_retry =
        Option.map (fun h -> fun ~attempt exn -> h ~id ~attempt exn) on_retry
      in
      (* The task id is the jitter salt: casualties of one burst back off
         on decorrelated schedules instead of re-colliding in lockstep. *)
      Retry.run ~salt:id ?on_retry ?restore policy (fun ~attempt ->
        match faults with
        | Some f -> Fault.wrap f ~site:"exec" ~task:name ~attempt (fun () -> execute id)
        | None -> execute id)

let run ?on_task ?task_name ?faults ?retry ?capture ?on_retry ?job ~pool ~num_tasks
    ~in_degree ~successors ~execute () =
  if Array.length in_degree <> num_tasks then
    invalid_arg "Dag_exec.run: in_degree length mismatch";
  let task_name = Option.value task_name ~default:string_of_int in
  let execute = supervise ~faults ~retry ~capture ~task_name ~on_retry execute in
  let execute =
    match on_task with
    | None -> execute
    | Some on_task ->
      (* Wall-clock spans relative to this run's origin, so the events line
         up with the Trace exporters' expectation of a 0-based timeline.
         Under retry the span covers every attempt and backoff of the
         task. *)
      let origin = Unix.gettimeofday () in
      fun id ->
        let worker = Pool.self_index pool in
        let start = Unix.gettimeofday () -. origin in
        Fun.protect
          ~finally:(fun () ->
            on_task ~id ~worker ~start ~stop:(Unix.gettimeofday () -. origin))
          (fun () -> execute id)
  in
  (* Without a caller's job the run gets a private one: its tasks and its
     failure are this run's alone, even on a shared pool. *)
  let job = match job with Some job -> job | None -> Pool.new_job pool in
  let counters = Array.map (fun d -> Atomic.make d) in_degree in
  let completed = Atomic.make 0 in
  let rec launch id =
    Pool.submit_job pool job (fun () ->
      execute id;
      Atomic.incr completed;
      List.iter
        (fun s -> if Atomic.fetch_and_add counters.(s) (-1) = 1 then launch s)
        (successors id))
  in
  (* Roots must be read from the immutable in-degrees, not the live
     counters: a root submitted early may already be executing and
     decrementing successors while this scan is still running. *)
  let roots = ref [] in
  Array.iteri (fun id d -> if d = 0 then roots := id :: !roots) in_degree;
  if num_tasks > 0 && !roots = [] then
    invalid_arg "Dag_exec.run: no source task (cyclic graph?)";
  List.iter launch !roots;
  (* Re-raises the first task error; the job skipped the queued rest. *)
  Pool.join_job pool job;
  if Atomic.get completed <> num_tasks then
    invalid_arg "Dag_exec.run: not all tasks became ready (cyclic graph?)"

(* Invert the successor function once; each list comes back in ascending
   task order. *)
let predecessors ~num_tasks ~successors =
  let preds = Array.make num_tasks [] in
  for id = num_tasks - 1 downto 0 do
    List.iter (fun s -> preds.(s) <- id :: preds.(s)) (successors id)
  done;
  preds
