(** ASCII rendering of tile-level category maps.

    Used to reproduce the precision-map figures of the paper (Figs 2, 4, 7):
    each tile of an [nt] × [nt] tiled matrix carries a small category index
    (a precision, or an STC/TTC flag) drawn as one character. *)

type t

val create : nt:int -> categories:(string * char) list -> t
(** [create ~nt ~categories] prepares a map of [nt] × [nt] cells where
    category [i] is labelled and drawn by [List.nth categories i]. *)

val render : t -> cell:(row:int -> col:int -> int option) -> string
(** [render t ~cell] draws the lower-triangular map ([cell] returning [None]
    leaves a blank, e.g. for the strictly upper triangle), followed by a
    legend giving the percentage of populated cells per category — the same
    annotation as the paper's Fig 7. *)
