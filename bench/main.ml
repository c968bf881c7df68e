(* Reproduction harness: one runner per table/figure of the paper's
   evaluation plus the ablations.  `dune exec bench/main.exe` runs all of
   them at laptop scale; `--full` switches to paper-scale parameters;
   `--only id1,id2` selects a subset.  The experiment index lives in
   DESIGN.md; measured-vs-paper comparisons are recorded in EXPERIMENTS.md.

   CI mode: `--smoke --json [PATH]` runs the deterministic smoke metric set
   (B_motion.smoke_metrics) and writes the BENCH_*.json artifact;
   `--compare BASELINE` additionally gates the run against a committed
   baseline (exit 1 when any metric regresses by more than the
   tolerance). *)

module Bench_json = Geomix_obs.Bench_json

let experiments : (string * string * (Common.scale -> unit)) list =
  [
    ("table1", "Table I: GPU peak performance", B_table1.run);
    ("fig1", "Fig 1: GEMM accuracy & performance", B_fig1.run);
    ("table2", "Table II: tile move / GEMM times on V100", B_table2.run);
    ("fig2_4", "Figs 2 & 4: precision / storage / communication maps", B_fig2_4.run);
    ("fig5", "Fig 5: 2D Monte-Carlo MLE boxplots", B_fig5.run);
    ("fig6", "Fig 6: 3D Monte-Carlo MLE boxplots", B_fig6.run);
    ("fig7", "Fig 7: precision composition per application", B_fig7.run);
    ("fig8", "Fig 8: STC vs TTC on one GPU", B_fig8.run);
    ("fig9", "Fig 9: H100 occupancy", B_fig9.run);
    ("fig10", "Fig 10: power & energy", B_fig10.run);
    ("fig11", "Fig 11: single-node multi-GPU", B_fig11.run);
    ("fig12", "Fig 12: Summit scalability", B_fig12.run);
    ("motion", "Data motion: STC vs TTC vs FP64 bytes on the wire", B_motion.run);
    ("ablations", "Ablations: STC accuracy, rule sweep, BF16 chain", B_ablation.run);
  ]

let usage () =
  print_endline
    "usage: main.exe [--full] [--only id1,id2,...] [--list]\n\
    \       main.exe --smoke [--json PATH] [--compare BASELINE] [--tolerance F]";
  print_endline "experiments:";
  List.iter (fun (id, descr, _) -> Printf.printf "  %-10s %s\n" id descr) experiments

(* The CI bench gate.  Always writes the artifact (uploaded by the
   workflow even on failure), then compares against the baseline if one
   was given. *)
let run_smoke ~json_path ~compare_with ~tolerance =
  let t0 = Unix.gettimeofday () in
  let metrics = B_motion.smoke_metrics () in
  let bench = Bench_json.make ~suite:"smoke" metrics in
  let path = Option.value json_path ~default:"BENCH_smoke.json" in
  Bench_json.write ~path bench;
  Printf.printf "bench smoke: %d metrics -> %s (%.1fs)\n" (List.length metrics) path
    (Unix.gettimeofday () -. t0);
  List.iter
    (fun m ->
      Printf.printf "  %-24s %s %s\n" m.Bench_json.name
        (Geomix_util.Table.fmt_float ~digits:5 m.Bench_json.value)
        m.Bench_json.units)
    metrics;
  match compare_with with
  | None -> 0
  | Some base_path -> (
    match Bench_json.read ~path:base_path with
    | Error msg ->
      Printf.eprintf "cannot read baseline %s: %s\n" base_path msg;
      1
    | Ok baseline ->
      (* The smoke run owns every baseline metric outside the serve / obs /
         ooc suites (which gate their own slices in b_serve / b_ooc): a
         baseline metric this run stops emitting is a hard failure, not a
         skip. *)
      let expect n =
        let owned_elsewhere p = String.starts_with ~prefix:p n in
        not
          (owned_elsewhere "serve_" || owned_elsewhere "obs_"
         || owned_elsewhere "ooc_")
      in
      let verdicts = Bench_json.compare ~expect ~tolerance ~baseline ~current:bench () in
      Printf.printf "\nregression gate vs %s (tolerance %.0f%%):\n%s" base_path
        (100. *. tolerance)
        (Bench_json.report_verdicts verdicts);
      if Bench_json.any_regressed verdicts then begin
        (match Bench_json.missing verdicts with
        | [] -> ()
        | names ->
          Printf.eprintf "bench gate: baseline metrics missing from this run: %s\n"
            (String.concat ", " names));
        Printf.eprintf "bench gate FAILED: metrics regressed beyond %.0f%%\n"
          (100. *. tolerance);
        1
      end
      else begin
        Printf.printf "bench gate passed.\n";
        0
      end)

let () =
  let full = ref false in
  let only = ref None in
  let smoke = ref false in
  let json_path = ref None in
  let compare_with = ref None in
  let tolerance = ref 0.20 in
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
      full := true;
      parse rest
    | "--only" :: ids :: rest ->
      only := Some (String.split_on_char ',' ids);
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--json" :: path :: rest when String.length path > 0 && path.[0] <> '-' ->
      json_path := Some path;
      parse rest
    | "--json" :: rest ->
      (* bare --json: default artifact name *)
      json_path := Some "BENCH_smoke.json";
      parse rest
    | "--compare" :: path :: rest ->
      compare_with := Some path;
      parse rest
    | "--tolerance" :: f :: rest ->
      (match float_of_string_opt f with
      | Some t when t >= 0. -> tolerance := t
      | _ ->
        Printf.eprintf "bad --tolerance %S\n" f;
        exit 2);
      parse rest
    | ("--list" | "--help" | "-h") :: _ ->
      usage ();
      exit 0
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      usage ();
      exit 2
  in
  parse (List.tl args);
  if !smoke then
    exit (run_smoke ~json_path:!json_path ~compare_with:!compare_with ~tolerance:!tolerance)
  else begin
    let scale = { Common.full = !full } in
    let selected =
      match !only with
      | None -> experiments
      | Some ids ->
        List.iter
          (fun id ->
            if not (List.exists (fun (i, _, _) -> i = id) experiments) then begin
              Printf.eprintf "unknown experiment %S\n" id;
              usage ();
              exit 2
            end)
          ids;
        List.filter (fun (id, _, _) -> List.mem id ids) experiments
    in
    Printf.printf
      "GeoMix reproduction harness — %s scale\n\
       Paper: Reducing Data Motion and Energy Consumption of Geospatial Modeling\n\
       Applications Using Automated Precision Conversion (CLUSTER 2023)\n"
      (if !full then "paper (--full)" else "reduced (default)");
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (_, _, run) ->
        let t = Unix.gettimeofday () in
        run scale;
        Printf.printf "  [%.1fs]\n%!" (Unix.gettimeofday () -. t))
      selected;
    Printf.printf "\nAll selected experiments completed in %.1fs.\n"
      (Unix.gettimeofday () -. t0)
  end
