(** Dense column-major FP64 matrices on [Bigarray] storage.

    This is the storage type every kernel ([Blas], [Blas_emul]) and the tile
    framework operate on.  Values are always held in binary64; lower
    precisions exist only as rounding disciplines applied by the emulated
    kernels ({!Blas_emul}) and conversion operators ({!round_inplace}). *)

type t

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : rows:int -> cols:int -> t
(** Zero-initialised matrix.  Every function here that returns a fresh
    matrix allocates it through [create]. *)

val allocations : unit -> int * int
(** [(matrices, bytes)] allocated by {!create} since the program started,
    over all domains. *)

val view : t -> off:int -> rows:int -> cols:int -> t
(** [view t ~off ~rows ~cols] is a [rows]×[cols] matrix over the
    [rows·cols] consecutive entries of [t]'s storage from [off]: it shares
    [t]'s bytes and allocates none, so a write through either is seen by
    both. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t
(** [init ~rows ~cols f] fills entry (i, j) with [f i j]. *)

val rows : t -> int
val cols : t -> int

val data : t -> buf
(** The backing store, column-major: entry (i, j) is at [i + j·rows].  Hot
    loops index it directly: the dev profile compiles with [-opaque], so a
    call to {!unsafe_get} from another module is an out-of-line call that
    boxes its float result, while [Bigarray.Array1.unsafe_get] on a [buf]
    compiles to an unboxed load. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val unsafe_get : t -> int -> int -> float
val unsafe_set : t -> int -> int -> float -> unit

val fill : t -> float -> unit
val copy : t -> t
val blit : src:t -> dst:t -> unit

val of_arrays : float array array -> t
(** Row-major [float array array] to matrix. *)

val to_arrays : t -> float array array

val identity : int -> t

val round_inplace : Geomix_precision.Fpformat.scalar -> t -> unit
(** Round every entry to the given scalar format (a datatype conversion). *)

val rounded : Geomix_precision.Fpformat.scalar -> t -> t
(** Fresh rounded copy; [rounded S_fp64] is just {!copy}. *)

val scale : t -> float -> unit
val add_scaled : t -> alpha:float -> t -> unit
(** [add_scaled acc ~alpha x] performs [acc ← acc + alpha·x]. *)

val transpose : t -> t

val zero_upper : t -> unit
(** Clear the strictly upper triangle (for comparing lower factors). *)

val frobenius : t -> float
val diff_frobenius : t -> t -> float
(** ‖a − b‖_F. *)

val rel_diff : t -> reference:t -> float
(** ‖a − ref‖_F / ‖ref‖_F (0/0 = 0). *)

val matvec : t -> float array -> float array
(** Dense matrix–vector product. *)

val matvec_trans : t -> float array -> float array
(** [matvec_trans a x = aᵀ·x]. *)

val sub_view_copy : t -> row:int -> col:int -> rows:int -> cols:int -> t
(** Copy of a rectangular block. *)

val set_block : t -> row:int -> col:int -> t -> unit
(** Write a block back at (row, col). *)

val pp : Format.formatter -> t -> unit
(** Debug printer (small matrices only). *)
