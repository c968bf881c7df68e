(** Task classes of the tile Cholesky factorization (Algorithm 1).

    Mirrors the Parameterized Task Graph view of PaRSEC: a task is a class
    name plus integer parameters; its data footprint (the tile it updates,
    the tiles it reads) and its execution precision are pure functions of
    the parameters — exactly the information a JDF file carries. *)

module Fpformat = Geomix_precision.Fpformat

type kind =
  | Potrf of int            (** POTRF(k): factorise tile (k,k) *)
  | Trsm of int * int       (** TRSM(m,k): tile (m,k) ← tile (m,k)·L(k,k)⁻ᵀ *)
  | Syrk of int * int       (** SYRK(m,k): tile (m,m) ← tile (m,m) − A(m,k)·A(m,k)ᵀ *)
  | Gemm of int * int * int (** GEMM(m,n,k): tile (m,n) ← tile (m,n) − A(m,k)·A(n,k)ᵀ *)

val name : kind -> string
(** ["POTRF(2)"], ["GEMM(5,3,1)"], ... *)

val write_tile : kind -> int * int
(** The tile the task updates (its INOUT datum). *)

val read_tiles : kind -> (int * int) list
(** Tiles read from other tasks (the IN data whose communication the
    automated conversion strategy manages). *)

val exec_precision : kernel_precision:(int -> int -> Fpformat.t) -> kind -> Fpformat.t
(** Precision the kernel executes in, given the tile-level kernel-precision
    map: every kernel runs at the precision of the tile it updates, except
    TRSM which {e never runs below FP32} (hardware restriction, Section V).
    Adaptive maps pin diagonal tiles to FP64, which is how the paper's
    "POTRF and SYRK always FP64" materialises; uniform baseline maps (pure
    FP32) may legitimately run them lower. *)

val flops : nb:int -> kind -> float
(** Flop count of the task on uniform [nb]-sized tiles. *)
