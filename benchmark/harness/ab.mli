(** The [compare] subcommand: parent and change result directories, as
    [benchmark/ab.sh] lays them out — one sub-directory per pair (sorted
    by name, so pair [i] of each side is matched by position), each
    holding one [<workload>.json] result file per workload. *)

val compare : Spec.t -> parent:string -> change:string -> int
(** Prints, per workload and end-to-end metric, each side's median and
    quartiles, the pair wins and the {!Verdict}.  A workload on which the
    change failed more operations than the parent (summed over its runs)
    gets a [regressed (failures)] line as well.  Returns 1 when any metric
    or any workload's failures regressed, else 0. *)
