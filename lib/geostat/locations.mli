(** Synthetic spatial location sets.

    The paper's synthetic datasets place n sites in the unit square (2D) or
    unit cube (3D).  Like ExaGeoStat, the default generator perturbs a
    regular √n × √n grid with uniform jitter, which keeps sites irregular
    while bounding the minimum separation (important for the conditioning
    of squared-exponential covariances). *)

type t

val dim : t -> int
val count : t -> int
val coord : t -> int -> float array
(** Coordinates of site [i] (length {!dim}). *)

val jittered_grid_2d : rng:Geomix_util.Rng.t -> n:int -> t
(** ⌈√n⌉² grid cells in the unit square, one site per cell uniformly placed
    inside a centred sub-cell; exactly [n] sites are kept. *)

val jittered_grid_3d : rng:Geomix_util.Rng.t -> n:int -> t

val uniform_2d : rng:Geomix_util.Rng.t -> n:int -> t
(** Fully uniform sites (no separation guarantee). *)

val subset : t -> int list -> t
(** Sites selected by index, in the given order. *)

val distance : t -> int -> int -> float
(** Euclidean distance between two sites. *)

val morton_sort : t -> t
(** Sites reordered along a Z-order (Morton) space-filling curve, the
    ordering ExaGeoStat applies so that nearby tiles hold nearby sites —
    this is what gives the covariance matrix the "norm decays away from
    the diagonal" structure the tile-precision rule exploits. *)
