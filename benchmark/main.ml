(* The measured benchmark.

   One workload, as BENCHMARK.json's command runs it:
     main.exe --workload W --seed N --seconds S --trace 0|1
   prints a report and, as its last line, the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   of BENCHMARK.json untraced, the per-layer ledger traced.

   All workloads, each in its own child process:
     main.exe run --seed N [--seconds S] [--out DIR] [--trace]
   A/B verdicts over two result trees (see ab.sh):
     main.exe compare PARENT_DIR CHANGE_DIR
   Tiny sizes, every workload both ways, checked against BENCHMARK.json:
     main.exe --smoke *)

open Bench_harness
module J = Geomix_obs.Jsonlite

let started = Unix.gettimeofday ()
let workloads = [ "lik_coarse"; "lik_fine_par"; "serve_mix"; "ooc_tight" ]

let run_workload (cfg : Common.cfg) w =
  let smoke = cfg.Common.smoke in
  match w with
  | "lik_coarse" -> Lik.run cfg (Lik.coarse ~smoke)
  | "lik_fine_par" -> Lik.run cfg (Lik.fine_par ~smoke)
  | "serve_mix" -> Serve_load.run cfg (Serve_load.mix ~smoke)
  | "ooc_tight" -> Ooc_load.run cfg (Ooc_load.tight ~smoke)
  | w -> invalid_arg ("unknown workload " ^ w)

(* Store files and the server socket live in a private directory under the
   working directory, removed on the way out. *)
let with_scratch f =
  let root = ".benchmark-tmp" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  Common.rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Common.rm_rf dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let measured (cfg : Common.cfg) w =
  let o = with_scratch (fun scratch -> run_workload { cfg with Common.scratch } w) in
  let metrics =
    if cfg.Common.trace then o.Report.metrics
    else o.Report.metrics @ [ Report.metric "peak_rss_mb" "MB" (Report.peak_rss_mb ()) ]
  in
  (o, metrics)

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let load_spec path =
  match Spec.load path with
  | Ok s -> s
  | Error es -> die "%s" (String.concat "\n" (List.map (fun e -> path ^ ": " ^ e) es))

let one ~spec ~workload ~seed ~seconds ~trace ~out ~chrome =
  if not (List.mem workload workloads) then die "unknown workload %s" workload;
  let cfg = { Common.seed; seconds; trace; smoke = false; setups = 3; scratch = "" } in
  let o, emitted = measured cfg workload in
  match Emit.complete spec ~trace emitted with
  | Error es -> die "%s" (String.concat "\n" es)
  | Ok metrics ->
    let header =
      Report.run_header ~workload ~seed ~seconds ~trace
        ~wall_s:(Unix.gettimeofday () -. started) o.Report.header
    in
    Printf.printf "%s %s\n" workload (J.to_string ~indent:false header);
    List.iter
      (fun (m : Report.metric) ->
        Printf.printf "  %-36s %14.6g %s\n" m.Report.name m.Report.value m.Report.unit_)
      metrics;
    List.iter (fun f -> Printf.eprintf "%s: FAILED: %s\n" workload f) o.Report.failures;
    let result = Report.result_json o metrics in
    Option.iter
      (fun p -> write_file p (J.to_string (J.Obj [ ("header", header); ("result", result) ])))
      out;
    if trace then
      Option.iter (fun p -> write_file p (Tracer.to_chrome_json o.Report.tracer)) chrome;
    print_endline (J.to_string ~indent:false result);
    exit (if Report.correct o then 0 else 1)

(* Each workload in its own child process of this executable. *)
let run_all ~spec_path ~seed ~seconds ~trace ~out =
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let child args =
    let argv = Array.of_list (Sys.executable_name :: args) in
    let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
    match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false
  in
  let ok =
    List.for_all Fun.id
      (List.concat_map
         (fun w ->
           let base = [ "--workload"; w; "--seed"; string_of_int seed; "--seconds";
                        Printf.sprintf "%g" seconds; "--spec"; spec_path ] in
           let file suffix = Filename.concat out (w ^ suffix) in
           let untraced = child (base @ [ "--trace"; "0"; "--out"; file ".json" ]) in
           let traced =
             (not trace)
             || child (base @ [ "--trace"; "1"; "--out"; file ".trace.json";
                                "--chrome"; file ".chrome.json" ])
           in
           [ untraced; traced ])
         workloads)
  in
  Printf.printf "results in %s: %s\n" out (if ok then "all correct" else "FAILURES");
  exit (if ok then 0 else 1)

(* Tiny sizes, every workload untraced and traced, in-process: everything
   BENCHMARK.json declares must come out finite and in its unit, and each
   per-layer metric must be measured (not defaulted) by some workload. *)
let smoke ~spec =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let declared = List.map (fun (w : Spec.workload) -> w.Spec.wname) spec.Spec.workloads in
  if List.sort compare declared <> List.sort compare workloads then
    problem "BENCHMARK.json workloads [%s] are not the benchmark's [%s]"
      (String.concat ", " declared) (String.concat ", " workloads);
  let measured_layers = Hashtbl.create 128 in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let cfg =
            { Common.seed = 1; seconds = 0.1; trace; smoke = true; setups = 1; scratch = "" }
          in
          let o, emitted = measured cfg w in
          if trace then
            List.iter
              (fun (m : Report.metric) -> Hashtbl.replace measured_layers m.Report.name ())
              emitted;
          List.iter (fun f -> problem "%s: %s" w f) o.Report.failures;
          if o.Report.attempted < 1 then problem "%s: no operation ran" w;
          match Emit.complete spec ~trace emitted with
          | Error es -> List.iter (fun e -> problem "%s (trace %b): %s" w trace e) es
          | Ok ms ->
            Printf.printf "smoke %-13s trace=%b: %d metrics\n%!" w trace (List.length ms))
        [ false; true ])
    workloads;
  List.iter
    (fun (m : Spec.metric) ->
      if not (Hashtbl.mem measured_layers m.Spec.name) then
        problem "per-layer metric %s is measured by no workload" m.Spec.name)
    spec.Spec.per_layer;
  match List.rev !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("smoke: " ^ p)) ps;
    exit 1

let usage =
  "usage:\n\
  \  main.exe --workload W --seed N --seconds S --trace 0|1\n\
  \           [--out FILE] [--chrome FILE] [--spec BENCHMARK.json]\n\
  \  main.exe run --seed N [--seconds S] [--out DIR] [--trace]\n\
  \  main.exe compare [--spec BENCHMARK.json] PARENT_DIR CHANGE_DIR\n\
  \  main.exe --smoke [--spec BENCHMARK.json]\n\
   workloads: lik_coarse lik_fine_par serve_mix ooc_tight"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let opts = Hashtbl.create 8 and flags = Hashtbl.create 4 and rest = ref [] in
  let rec parse = function
    | [] -> ()
    | ("--help" | "-h") :: _ ->
      print_endline usage;
      exit 0
    | "--trace" :: (("0" | "1") as v) :: tl ->
      Hashtbl.replace opts "--trace" v;
      parse tl
    | ("--smoke" | "--trace") as f :: tl ->
      Hashtbl.replace flags f ();
      parse tl
    | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace opts k v;
      parse tl
    | k :: _ when String.length k > 2 && String.sub k 0 2 = "--" ->
      die "%s needs a value\n%s" k usage
    | a :: tl ->
      rest := a :: !rest;
      parse tl
  in
  parse args;
  Hashtbl.iter
    (fun k _ ->
      let known = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--out"; "--chrome"; "--spec" ] in
      if not (List.mem k known) then die "unknown option %s\n%s" k usage)
    opts;
  let opt k = Hashtbl.find_opt opts k in
  let num k conv default =
    match opt k with
    | None -> default
    | Some v -> ( match conv v with Some x -> x | None -> die "bad value for %s: %s" k v)
  in
  let spec_path = Option.value (opt "--spec") ~default:"BENCHMARK.json" in
  let spec = load_spec spec_path in
  let seed = num "--seed" int_of_string_opt 1 in
  let seconds = num "--seconds" float_of_string_opt (float_of_int spec.Spec.run_seconds) in
  if seconds <= 0. then die "--seconds must be positive";
  match List.rev !rest with
  | [] when Hashtbl.mem flags "--smoke" -> smoke ~spec
  | [] -> (
    match opt "--workload" with
    | None -> die "%s" usage
    | Some workload ->
      one ~spec ~workload ~seed ~seconds
        ~trace:(opt "--trace" = Some "1")
        ~out:(opt "--out") ~chrome:(opt "--chrome"))
  | [ "run" ] ->
    run_all ~spec_path ~seed ~seconds ~trace:(Hashtbl.mem flags "--trace")
      ~out:(Option.value (opt "--out") ~default:"benchmark-results")
  | [ "compare"; parent; change ] -> exit (Ab.compare spec ~parent ~change)
  | _ -> die "%s" usage
