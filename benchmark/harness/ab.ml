module J = Geomix_obs.Jsonlite

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> ( match J.of_string s with Ok j -> Some j | Error _ -> None)
  | exception Sys_error _ -> None

(* The result objects of one workload under a side's directory, in pair
   order; a result file directly in the directory counts as one run. *)
let load_runs dir ~workload =
  let file d = Filename.concat d (workload ^ ".json") in
  let subdirs =
    match Sys.readdir dir with
    | entries ->
      Array.to_list entries |> List.sort compare
      |> List.map (Filename.concat dir)
      |> List.filter Sys.is_directory
    | exception Sys_error _ -> []
  in
  List.filter_map (fun d -> read_json (file d)) (dir :: subdirs)

let result_field j name = Option.bind (J.member "result" j) (J.member name)

let metric_value j name =
  Option.bind (result_field j "metrics") (fun ms ->
      Option.bind (J.member name ms) (fun m -> Option.bind (J.member "value" m) J.to_float))

let failed j = Option.value ~default:0. (Option.bind (result_field j "failed") J.to_float)

let fmt_summary (s : Verdict.summary) =
  Printf.sprintf "%.4g [%.4g, %.4g]" s.Verdict.median s.Verdict.q1 s.Verdict.q3

let compare (spec : Spec.t) ~parent ~change =
  let regressed = ref false in
  Printf.printf "%-13s %-16s %-28s %-28s %-6s %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun (w : Spec.workload) ->
      let workload = w.Spec.wname in
      let ps = load_runs parent ~workload and cs = load_runs change ~workload in
      if ps = [] || cs = [] then
        Printf.printf "%-13s (no runs: parent %d, change %d)\n" workload (List.length ps)
          (List.length cs)
      else begin
        List.iter
          (fun (m : Spec.metric) ->
            let values runs =
              Array.of_list (List.filter_map (fun j -> metric_value j m.Spec.name) runs)
            in
            let pv = values ps and cv = values cs in
            if Array.length pv > 0 && Array.length cv > 0 then begin
              let d =
                Verdict.decide ~better:m.Spec.better ~bound:m.Spec.bound ~parent:pv ~change:cv
              in
              if d.Verdict.verdict = Verdict.Regressed then regressed := true;
              Printf.printf "%-13s %-16s %-28s %-28s %-6s %s (%+.1f%%)\n" workload m.Spec.name
                (fmt_summary d.Verdict.parent) (fmt_summary d.Verdict.change)
                (Printf.sprintf "%d/%d" d.Verdict.wins d.Verdict.pairs)
                (Verdict.name d.Verdict.verdict) (100. *. d.Verdict.change_frac)
            end)
          spec.Spec.end_to_end;
        (* Any increase in failed operations is a regression, whatever the
           timings say. *)
        let total runs = List.fold_left (fun a j -> a +. failed j) 0. runs in
        if total cs > total ps then begin
          regressed := true;
          Printf.printf "%-13s %-16s %-28.0f %-28.0f %-6s regressed (failures)\n" workload
            "failed" (total ps) (total cs) ""
        end
      end)
    spec.Spec.workloads;
  if !regressed then 1 else 0
