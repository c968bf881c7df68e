(** [BENCHMARK.json]: the declaration of the benchmark — the command that
    runs it, the directories that hold it, the workloads and every metric
    with its unit, direction and (end-to-end only) regression bound.

    {!of_json} enforces the file's contract and reports every violation,
    not just the first: the exact key sets, the caps (2–8 workloads, 1–16
    end-to-end and 1–128 per-layer metrics), name and unit character sets,
    bounds in [\[0, 0.25\]], and the mandatory [setup_s] metric. *)

type direction = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : direction;
  bound : float option;  (** end-to-end metrics only *)
}

type workload = { wname : string; why : string }

type t = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : workload list;
  end_to_end : metric list;
  per_layer : metric list;
}

val valid_name : string -> bool
(** Starts with a letter or digit; at most 64 of letters, digits, [_], [.]
    and [-]. *)

val valid_unit : string -> bool
(** 1 to 16 of letters, digits, [_], [/], [%], [.] and [-]. *)

val of_json : Geomix_obs.Jsonlite.t -> (t, string list) result

val of_string : string -> (t, string list) result
(** Parses and validates; also refuses text over 64 KiB. *)

val load : string -> (t, string list) result
(** {!of_string} on a file's contents. *)
