(** The A/B decision rule of the [compare] subcommand: parent and change
    runs of one workload × metric, paired by run index (the pairs ran
    back to back, alternating which side went first).

    - {e improved}: over at least {!min_pairs} pairs, the change wins at
      least 9 of every 10 (ties count for neither side) and its median
      beats the parent's by more than the parent's own interquartile
      range;
    - {e unresolved}: otherwise, when the parent's run-to-run spread
      (IQR ÷ |median|) is wider than the bound — unless every change run
      reads better than every parent run, or every one reads worse and
      the medians differ by more than the bound — or the metric has no
      bound;
    - {e regressed}: the change's median is worse than the parent's by
      more than [bound × |parent median|];
    - {e within bound}: everything else. *)

type t = Improved | Within_bound | Regressed | Unresolved

val min_pairs : int
(** 10: fewer pairs never support a gain. *)

val name : t -> string
(** ["improved"], ["within bound"], ["regressed"], ["unresolved"]. *)

type summary = { median : float; q1 : float; q3 : float; runs : int }

val summarize : float array -> summary

type decision = {
  verdict : t;
  parent : summary;
  change : summary;
  wins : int;  (** pairs the change read strictly better *)
  pairs : int;
  change_frac : float;
      (** (change median − parent median) ÷ |parent median|, signed so
          that positive is better *)
}

val decide :
  better:Spec.direction ->
  bound:float option ->
  parent:float array ->
  change:float array ->
  decision
(** Pairs are [parent.(i)], [change.(i)] for [i] below the shorter
    length; the summaries use every run of each side.
    @raise Invalid_argument when either side is empty. *)
