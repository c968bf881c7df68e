(* geomix report: a run report — precision map, data motion and, with
   --run, a real instrumented factorization. *)

open Cmdliner
open Cli
module Cm = Geomix_core.Comm_map
module Events = Geomix_obs.Events
module Report = Geomix_obs.Report
module Jsonlite = Geomix_obs.Jsonlite
module Cdag = Geomix_runtime.Cholesky_dag
module Guard = Geomix_integrity.Guard

let pct x = Printf.sprintf "%.1f%%" (100. *. x)

let sec x = Printf.sprintf "%.6f s" x

let run smoke run_real ntiles config nb run_nb workers format out events verbose =
  (* --smoke: a fixed small instrumented run, the CI artifact preset. *)
  let ntiles, run_nb, workers, run_real =
    if smoke then (8, 16, Some 0, true) else (ntiles, run_nb, workers, run_real)
  in
  let pmap = pmap_of_config ~ntiles config in
  let cm = Cm.compute pmap in
  let m = Cm.motion cm pmap ~nb in
  let doc =
    Report.create
      ~title:
        (Printf.sprintf "geomix run report — NT=%d, %s" ntiles (config_name config))
  in
  Report.para doc
    (Printf.sprintf
       "Tile Cholesky of an NT=%d (%dx%d tiles) matrix under the %s precision \
        configuration; data-motion accounting at nb=%d%s."
       ntiles ntiles ntiles (config_name config) nb
       (if run_real then Printf.sprintf ", instrumented run at nb=%d" run_nb else ""));
  (* Precision-map composition — the paper's Fig 5 content. *)
  Report.section doc "Precision map";
  Report.table doc ~headers:[ "precision"; "tiles" ]
    (List.map (fun (p, f) -> [ Fp.name p; pct f ]) (Pm.fractions pmap));
  Report.para doc
    (Printf.sprintf "%s of broadcasting tiles ship STC under automated conversion."
       (pct (Cm.stc_fraction cm)));
  Report.attach doc ~key:"fractions"
    (Jsonlite.Obj
       (List.map (fun (p, f) -> (Fp.name p, Jsonlite.Num f)) (Pm.fractions pmap)));
  (* STC / TTC data-motion table — the Fig 8 measurement. *)
  Report.section doc "Data motion";
  Report.table doc
    ~headers:[ "strategy"; "bytes moved"; "conversions"; "vs FP64" ]
    [
      [ "STC (automated)"; fb m.Cm.bytes_stc; string_of_int m.Cm.conv_stc;
        pct (1. -. (m.Cm.bytes_stc /. m.Cm.bytes_fp64)) ^ " saved" ];
      [ "TTC (prior art)"; fb m.Cm.bytes_ttc; string_of_int m.Cm.conv_ttc;
        pct (1. -. (m.Cm.bytes_ttc /. m.Cm.bytes_fp64)) ^ " saved" ];
      [ "all-FP64"; fb m.Cm.bytes_fp64; "0"; "—" ];
    ];
  Report.para doc
    (Printf.sprintf "%d broadcast transfers; STC saves %s vs TTC."
       m.Cm.transfers
       (pct (1. -. (m.Cm.bytes_stc /. m.Cm.bytes_ttc))));
  Report.attach doc ~key:"motion"
    (Jsonlite.Obj
       [
         ("bytes_stc", Jsonlite.Num m.Cm.bytes_stc);
         ("bytes_ttc", Jsonlite.Num m.Cm.bytes_ttc);
         ("bytes_fp64", Jsonlite.Num m.Cm.bytes_fp64);
         ("transfers", Jsonlite.Num (float_of_int m.Cm.transfers));
       ]);
  (* The replayed makespan: [None] without --run, else the streamed and
     measured values. *)
  let replay =
    if not run_real then None
    else begin
      let reg = Metrics.create () in
      let stream = Metrics.events reg in
      (* Sinks: a JSONL file with --events, machine-readable JSONL on stderr
         under GEOMIX_LOG (the report's stdout is the document), a pretty
         stderr narration with --verbose, and a ring the report itself uses
         to cross-check the streamed log against the trace. *)
      let events_oc = Option.map open_out events in
      Option.iter (Events.attach_jsonl stream) events_oc;
      (match Events.env_level () with
      | None -> ()
      | Some lvl ->
        Events.on_event stream (fun e ->
            (* Levels are declared in ascending severity. *)
            if e.Events.level >= lvl then begin
              output_string stderr (Events.to_jsonl e);
              output_char stderr '\n';
              flush stderr
            end));
      if verbose then Events.attach_stderr ~min_level:Events.Debug stream;
      let ring = Events.ring ~capacity:65536 stream in
      let guard = Guard.create ~obs:reg () in
      let { n; workers = resources; wall; measures; trace } =
        measured_run ~reg ~integrity:guard ?workers ~pmap ~nb:run_nb ()
      in
      Option.iter close_out events_oc;
      (* Read the JSONL sink back through the resilient reader: the report
         records how many intact events the file holds and how many
         damaged lines were skipped, so a truncated or interleaved log is
         visible in the artifact instead of silently shorter. *)
      let events_readback =
        Option.map
          (fun path ->
            let ic = open_in path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () ->
                let evs, skipped = Events.read_jsonl ic in
                (List.length evs, skipped)))
          events
      in
      let dag = Cdag.create ~nt:ntiles in
      let preds =
        Geomix_parallel.Dag_exec.predecessors ~num_tasks:(Cdag.num_tasks dag)
          ~successors:(Cdag.successors dag)
      in
      let prof = Profile.analyze ~preds measures in
      (* Cross-check: the makespan reconstructed from the streamed task_end
         events must equal the trace's bit-for-bit (same hook, same floats);
         a mismatch fails the command after the report is written. *)
      let streamed_makespan =
        List.fold_left
          (fun acc (e : Events.event) ->
            if e.Events.name = "task_end" then
              match Option.bind (List.assoc_opt "at" e.Events.fields) Jsonlite.to_float with
              | Some t -> Float.max acc t
              | None -> acc
            else acc)
          0. (Events.ring_events ring)
      in
      Report.section doc "Execution";
      Report.table doc ~headers:[ "quantity"; "value" ]
        ([
           [ "matrix"; Printf.sprintf "n=%d (nb=%d)" n run_nb ];
           [ "workers"; string_of_int resources ];
           [ "makespan"; sec (Trace.makespan trace) ];
           [ "wall clock"; Printf.sprintf "%.3f s" wall ];
           [ "utilisation"; pct (Trace.utilisation trace ~resources:resources) ];
           [ "tasks"; string_of_int prof.Profile.tasks ];
           [ "event log reconstructs makespan";
             (if streamed_makespan = Trace.makespan trace then "yes (bit-identical)"
              else Printf.sprintf "NO (%h vs %h)" streamed_makespan
                     (Trace.makespan trace)) ];
         ]
        @
        match events_readback with
        | None -> []
        | Some (intact, skipped) ->
          [
            [ "events file intact lines"; string_of_int intact ];
            [ "events file damaged lines skipped"; string_of_int skipped ];
          ]);
      (match events_readback with
      | None -> ()
      | Some (intact, skipped) ->
        Report.attach doc ~key:"events_file"
          (Jsonlite.Obj
             [
               ("intact", Jsonlite.Num (float_of_int intact));
               ("skipped", Jsonlite.Num (float_of_int skipped));
             ]));
      Report.para doc "Occupancy (rows = workers, glyph = precision tag):";
      Report.code doc (Trace.gantt trace ~resources:resources ~width:72);
      Report.section doc "Critical path";
      Report.para doc
        (Printf.sprintf
           "Critical path %s = %s of the %s makespan (busy %s over %d workers); \
            %d of %d tasks have zero slack.  Lower bound at this worker count: \
            %s (predicted speedup %.2fx against measured)."
           (sec prof.Profile.cp_length) (pct prof.Profile.cp_frac)
           (sec prof.Profile.makespan) (sec prof.Profile.busy) prof.Profile.workers
           (Array.fold_left (fun acc s -> if s = 0. then acc + 1 else acc) 0
              prof.Profile.slack)
           prof.Profile.tasks
           (sec (Profile.lower_bound prof ~workers:resources))
           (Profile.predicted_speedup prof ~workers:resources));
      Report.para doc
        ("Chain: " ^ String.concat " → " prof.Profile.cp_chain_labels);
      let bucket_rows buckets =
        List.map
          (fun (b : Profile.bucket) ->
            [ b.Profile.key; sec b.Profile.busy; string_of_int b.Profile.tasks;
              pct (if prof.Profile.busy > 0. then b.Profile.busy /. prof.Profile.busy else 0.) ])
          buckets
      in
      Report.para doc "Time attribution by kernel class:";
      Report.table doc ~headers:[ "class"; "busy"; "tasks"; "share" ]
        (bucket_rows prof.Profile.by_class);
      Report.para doc "Time attribution by execution precision:";
      Report.table doc ~headers:[ "precision"; "busy"; "tasks"; "share" ]
        (bucket_rows prof.Profile.by_precision);
      Report.para doc "What-if (critical-path / work lower bounds):";
      Report.table doc ~headers:[ "workers"; "lower bound"; "predicted speedup" ]
        (List.map
           (fun w ->
             [ string_of_int w; sec (Profile.lower_bound prof ~workers:w);
               Printf.sprintf "%.2fx" (Profile.predicted_speedup prof ~workers:w) ])
           [ 1; 2; 4; 8 ]);
      Report.attach doc ~key:"profile" (Profile.to_json prof);
      Report.section doc "Metrics";
      Report.code doc (Metrics.to_table (Metrics.snapshot reg));
      let recovery =
        let snap = Metrics.snapshot reg in
        List.filter_map
          (fun name ->
            match Metrics.find snap name with
            | Some (Metrics.Counter n) -> Some [ name; string_of_int n ]
            | _ -> None)
          [ "cholesky.retries"; "cholesky.restores"; "recovery.band_escalations" ]
      in
      if recovery <> [] then begin
        Report.para doc "Recovery counters:";
        Report.table doc ~headers:[ "counter"; "value" ] recovery
      end;
      (* ABFT coverage of the instrumented run: how much was guarded and
         whether anything tripped (a clean run shows zero detections). *)
      Report.section doc "Tile integrity";
      Report.table doc ~headers:[ "quantity"; "value" ]
        [
          [ "tile stamps"; string_of_int (Guard.stamped guard) ];
          [ "verifications"; string_of_int (Guard.verified guard) ];
          [ "bytes hashed"; fb (float_of_int (Guard.hashed_bytes guard)) ];
          [ "SDC detected"; string_of_int (Guard.detected guard) ];
          [ "SDC recovered"; string_of_int (Guard.recovered guard) ];
          [ "unrecovered violations"; string_of_int (Guard.violations guard) ];
        ];
      Report.attach doc ~key:"integrity"
        (Jsonlite.Obj
           [
             ("stamped", Jsonlite.Num (float_of_int (Guard.stamped guard)));
             ("verified", Jsonlite.Num (float_of_int (Guard.verified guard)));
             ("hashed_bytes", Jsonlite.Num (float_of_int (Guard.hashed_bytes guard)));
             ("detected", Jsonlite.Num (float_of_int (Guard.detected guard)));
             ("recovered", Jsonlite.Num (float_of_int (Guard.recovered guard)));
           ]);
      Some (streamed_makespan, Trace.makespan trace)
    end
  in
  let text =
    match format with
    | `Md -> Report.to_markdown doc
    | `Json -> Jsonlite.to_string ~indent:true (Report.to_json doc) ^ "\n"
  in
  print_or_write ~what:"report" out text;
  match replay with
  | Some (streamed, measured) when streamed <> measured ->
    Printf.eprintf
      "geomix report: event log makespan %h does not rebuild the measured %h\n"
      streamed measured;
    exit 1
  | _ -> ()

let cmd =
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~doc:"Write the run's full telemetry stream to this JSONL file.")
  in
  let exits =
    Cmd.Exit.info 0 ~doc:"the report was written (and, with $(b,--run), the event log \
                          rebuilt the measured makespan bit-identically)."
    :: Cmd.Exit.info 1
         ~doc:"the streamed event log did not rebuild the measured makespan."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "report" ~exits
       ~doc:
         "Render a run report: precision-map composition, STC/TTC data motion, \
          and (with --run) occupancy, critical-path attribution and metrics of \
          a real instrumented factorization")
    Term.(
      const run
      $ smoke_arg
          ~doc:
            "CI preset: a fixed small instrumented run (NT=8, nb=16, serial \
             pool) — implies $(b,--run)."
      $ run_arg
          ~doc:
            "Execute a real instrumented factorization and include execution, \
             critical-path and metrics sections (without it, the report holds \
             the static precision-map and data-motion analysis only)."
      $ nt_arg 8 $ config_arg `Mixed16_32 $ nb_arg 2048 $ run_nb_arg
      $ workers_arg " for --run"
      $ doc_format_arg ~doc:"Report output: md (GitHub-flavoured Markdown) or json."
      $ out_arg ~doc:"Write the report to this file instead of stdout."
      $ events_arg $ verbose_arg)
