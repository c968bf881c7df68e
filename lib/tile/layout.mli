(** 2-D block-cyclic data distribution.

    The paper distributes tiles over a process grid P × Q "as square as
    possible" with P ≤ Q (Section VII-A); within a node, tiles are further
    cycled over the GPUs.  This module computes owners for both levels. *)

type grid = private { p : int; q : int }

val squarest_grid : int -> grid
(** [squarest_grid n] is the P × Q factorisation of [n] with P·Q = n,
    P ≤ Q, and P maximal — the paper's process-grid rule. *)

val owner : grid -> i:int -> j:int -> int
(** Block-cyclic owner rank of tile (i, j): rank = (i mod P)·Q + (j mod Q). *)
