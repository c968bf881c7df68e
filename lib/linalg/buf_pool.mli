(** Recycled matrix buffers, keyed by shape.

    Code that needs a short-lived matrix takes one with {!take} and hands it
    back with {!give} once nothing reads it; the next {!take} of the same
    shape reuses it instead of allocating.  [Bigarray] storage lives outside
    the OCaml heap, and every fresh buffer advances the major GC by its
    size, so a matrix-sized allocation per call sets the pace of major
    collections — and a major collection stops every domain.

    The pool is one free list per shape, shared by all domains and threads
    under one mutex.  A shape keeps at most 32 free buffers and the pool at
    most 32 MiB in all; a buffer given back beyond either bound is left to
    the GC, as is one never given back (lost to an exception, say). *)

val take : rows:int -> cols:int -> Mat.t
(** A [rows]×[cols] matrix with unspecified contents: a free buffer of
    that shape, or a fresh {!Mat.create} when there is none. *)

val give : Mat.t -> unit
(** Hand a buffer back.  Its storage must be reachable from nothing else
    — no live reference, no {!Mat.view} over it still in use — since the
    next {!take} of its shape overwrites it. *)

val copy : Mat.t -> Mat.t
(** A pooled {!Mat.copy}. *)

val rounded : Geomix_precision.Fpformat.scalar -> Mat.t -> Mat.t
(** A pooled {!Mat.rounded}, bit for bit. *)
