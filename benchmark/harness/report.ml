module J = Geomix_obs.Jsonlite

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failures : string list;
  metrics : metric list;
  header : (string * J.t) list;
  tracer : Tracer.t;
}

let correct o = o.failures = []

let result_json o metrics =
  J.Obj
    [
      ("correct", J.Bool (correct o));
      ("attempted", J.Num (float_of_int o.attempted));
      ("failed", J.Num (float_of_int (List.length o.failures)));
      ( "metrics",
        J.Obj
          (List.map
             (fun m -> (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ]))
             metrics) );
    ]

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some (String.trim s)
  | exception Sys_error _ -> None

let git_commit () =
  match Sys.getenv_opt "GEOMIX_BENCH_COMMIT" with
  | Some c when c <> "" -> c
  | _ -> (
    match read_file ".git/HEAD" with
    | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" ref_) with
      | Some c -> c
      | None -> (
        (* A packed ref: "<sha> <refname>" lines. *)
        match read_file ".git/packed-refs" with
        | None -> "unknown"
        | Some packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ sha; r ] when r = ref_ -> Some sha
                 | _ -> None)
          |> Option.value ~default:"unknown"))
    | Some sha when sha <> "" -> sha
    | _ -> "unknown")

let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> nan
  | Some status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           if String.starts_with ~prefix:"VmHWM:" line then
             Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
           else None)
    |> Option.value ~default:nan

let run_header ~workload ~seed ~seconds ~trace ~wall_s fields =
  J.Obj
    ([
       ("workload", J.Str workload);
       ("seed", J.Num (float_of_int seed));
       ("commit", J.Str (git_commit ()));
       ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
       ("ocaml", J.Str Sys.ocaml_version);
       ("seconds", J.Num seconds);
       ("trace", J.Bool trace);
     ]
    @ fields
    @ [ ("wall_s", J.Num wall_s) ])
