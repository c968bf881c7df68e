(** Stage 3 of the range-driven autotuner: the accuracy-vs-motion/energy
    frontier.

    For each accuracy target the explorer runs the full pipeline — pilot
    factorization under the norm-rule map with {!Range_tracker}
    instrumentation, {!Type_advisor} transfer demotion, a re-factorization
    under the advised map, {!Geomix_core.Comm_map.motion} accounting and a
    {!Geomix_core.Sim_cholesky} run for energy/makespan — and emits every
    point plus its Pareto-optimal subset in (STC bytes, measured residual).
    The sweep is a deterministic function of (seed, NT, nb, targets): the
    same inputs produce byte-identical JSON. *)

module Cm = Geomix_core.Comm_map
module Machine = Geomix_gpusim.Machine

type point = {
  target : float;         (** accuracy target u_req of this sweep point *)
  residual : float;       (** measured ‖A−LLᵀ‖/‖A‖ under the advised map *)
  residual_norm : float;  (** same, under the plain norm-rule map *)
  bound : float;          (** {!Type_advisor.residual_bound} at this target *)
  ok : bool;              (** both residuals within [bound] *)
  demoted_tiles : int;
  fp8_tiles : int;
  bytes_stc : float;      (** advised-map STC bytes on the wire *)
  bytes_stc_norm : float; (** norm-rule STC bytes *)
  bytes_fp64 : float;     (** all-FP64 reference bytes *)
  energy : float;         (** simulated joules, advised map *)
  energy_norm : float;
  makespan : float;       (** simulated seconds, advised map *)
  makespan_norm : float;
}

type frontier = {
  nt : int;
  nb : int;
  seed : int;
  machine : string;
  points : point list;   (** one per target, loosest target first *)
  pareto : point list;   (** non-dominated in (bytes_stc, residual) *)
}

val synthetic_element : seed:int -> int -> int -> float
(** Seeded SPD covariance-like element function (exponential decay with
    seed-jittered rate and diagonal) — closed-form, so sweeps are
    reproducible without carrying matrices around. *)

val sweep :
  ?targets:float list ->
  ?machine:Machine.t ->
  nt:int ->
  nb:int ->
  seed:int ->
  unit ->
  frontier
(** Run the pipeline once per target (deduplicated, swept loosest-first).
    The matrix is [synthetic_element ~seed], each point's accuracy bound
    {!Type_advisor.residual_bound}.  Defaults: six log-spaced targets
    [1e-2 … 1e-12] and a single-A100 machine.
    @raise Invalid_argument on an empty target list. *)

val to_json : frontier -> Geomix_obs.Jsonlite.t
val to_json_string : frontier -> string
(** Schema ["geomix-autotune-frontier/1"]; deterministic byte-for-byte for
    equal frontiers. *)

val to_markdown : frontier -> string

(** {1 Acceptance predicates} *)

val all_within_bound : frontier -> bool
(** Every swept point's measured residuals satisfy the differential-oracle
    bound. *)

val fp8_motion_win : frontier -> bool
(** Some point ships at least one tile in FP8 with strictly fewer STC bytes
    than the norm-rule map, while staying within its accuracy bound. *)
