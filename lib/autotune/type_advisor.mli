(** Stage 2 of the range-driven autotuner: evidence-backed format advice.

    The Higham–Mary norm rule picks kernel precisions from tile norms
    alone; the advisor closes the loop with the pilot measurements of
    {!Range_tracker} and proposes {e transfer} demotions the rule has no
    evidence for — down to the FP8 formats
    ({!Geomix_precision.Fpformat.scalar} [S_fp8_e4m3]/[S_fp8_e5m2]) — as a
    {!Geomix_core.Comm_map.override} of Algorithm 2's map.  A tile may ship
    in format [s] only when all three hold:

    - [s] moves strictly fewer bytes than what Algorithm 2 already ships;
    - the scalar-level norm rule admits it:
      u(s) · ‖A_ij‖·NT/‖A‖ ≤ u_req;
    - every magnitude the pilot observed in the tile lies in [s]'s
      {e normal} range, so the conversion is a plain u(s) relative
      rounding — never a saturation or a flush to zero (which also keeps
      the ABFT conversion-tolerant fingerprints valid).

    Advice is a pure function of (recorded ranges, precision map, target),
    hence deterministic and differential-testable. *)

module Fp = Geomix_precision.Fpformat
module Pm = Geomix_core.Precision_map
module Cm = Geomix_core.Comm_map

type tile_advice = {
  i : int;
  j : int;
  base_comm : Fp.scalar;     (** what Algorithm 2 ships *)
  advised_comm : Fp.scalar;  (** the demoted transfer format *)
  ratio : float;             (** measured ‖A_ij‖·NT/‖A‖ *)
}

type t = {
  u_req : float;
  pmap : Pm.t;
  base : Cm.t;   (** Algorithm 2's map, [Cm.compute pmap] *)
  cmap : Cm.t;   (** [base] with the advised overrides applied *)
  demotions : tile_advice list;  (** tiles where advice differs, row-major *)
  rule_worst : float;
      (** max over tiles of max(ε_kernel, u(shipped)) · ratio — the
          Higham–Mary product {!residual_bound} scales *)
}

val advise :
  ?chain:Fp.scalar list ->
  u_req:float ->
  ranges:Range_tracker.t ->
  pmap:Pm.t ->
  unit ->
  t
(** Requires the tracker to hold input mass
    ({!Range_tracker.observe_tiled} the pilot matrix first) — the
    Higham–Mary ratios come from it.
    @raise Invalid_argument on a tile-count mismatch or an un-primed
    tracker. *)

val demoted : t -> int
val fp8_tiles : t -> int
(** Demotions whose advised format is one of the FP8 scalars. *)

val residual_bound : t -> float
(** [64 · NT · rule_worst + 1e-13] (64 is also
    [Geomix_verify.Oracle.residual_bound]'s default constant): the
    differential-oracle bound the measured relative residual of a
    factorization under [cmap] must satisfy. *)
