(** Descriptive statistics used by the Monte-Carlo accuracy studies and the
    benchmark reporting (boxplot five-number summaries, quantiles). *)

val mean : float array -> float
(** Arithmetic mean. Requires a non-empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for arrays of length < 2. *)

val quantile : float array -> float -> float
(** [quantile xs p] for [p] in [\[0,1\]], linear interpolation between order
    statistics (type-7, the R default). Does not mutate [xs]. *)

val median : float array -> float

type five_number = {
  low : float;   (** minimum *)
  q1 : float;    (** first quartile *)
  med : float;   (** median *)
  q3 : float;    (** third quartile *)
  high : float;  (** maximum *)
}
(** Boxplot summary, mirroring the boxplots of Figs 5 and 6. *)

val five_number : float array -> five_number

val pp_five_number : Format.formatter -> five_number -> unit
(** Renders as [min | q1 [med] q3 | max] with 4 significant digits. *)

val histogram : bins:int -> float array -> (float * float * int) array
(** [histogram ~bins xs] is an array of [(lo, hi, count)] with equal-width
    bins spanning the data range. *)
