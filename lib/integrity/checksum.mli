(** Per-tile checksums: an exact byte-image hash plus a Frobenius-norm
    fingerprint that tolerates precision conversion.

    A {!t} is stamped from a tile at a {e producer} boundary and checked at
    a {e consumer} boundary.  Two verification disciplines, one per hop
    kind:

    - {!matches}: FNV-1a over the tile's binary64 byte image — the ABFT
      check for hops that must preserve the tile bit-for-bit (a broadcast
      payload between a publish and its reads, a stored tile between its
      writer and the next kernel that touches it).  Any flipped bit, any
      swapped tile, fails.
    - {!matches_scalar}: the Frobenius fingerprint
      within a tolerance derived from the target format's unit roundoff
      [u_low] (the Higham–Mary quantity the precision map is built from) —
      the check for hops that legitimately change the bytes, i.e. the
      down-conversions of the automated-precision pipeline (FP64 working
      tile → FP32-class storage, storage → Algorithm 2's STC transfer
      format).  A lawful rounding moves the norm by at most
      [u_low·‖A‖_F + (d/2)·√n] (d the subnormal spacing), so it passes; a
      corruption that touches a high-order mantissa or exponent bit moves
      the norm far beyond it and fails.

    The norm fingerprint is deliberately the {e weak}, conversion-tolerant
    half of the scheme: its detection floor is a magnitude change of order
    [u_low·‖A‖_F].  The exact hash — re-stamped immediately {e after} each
    conversion — is the strong half that catches everything in between
    conversions.  Checksum computation never mutates the tile. *)

type t = {
  fnv : int64;  (** FNV-1a 64 over dims + byte image, column-major *)
  fro : float;  (** Frobenius norm, computed in binary64 *)
  rows : int;
  cols : int;
}

val stamp : Geomix_linalg.Mat.t -> t

val hash : Geomix_linalg.Mat.t -> int64
(** The byte-image hash alone. *)

val bytes : t -> int
(** Bytes covered by the stamp ([8·rows·cols]) — the unit the integrity
    metrics account overhead in. *)

val matches : t -> Geomix_linalg.Mat.t -> bool
(** Exact verification: dimensions and byte-image hash both match. *)

val matches_scalar :
  t -> scalar:Geomix_precision.Fpformat.scalar -> Geomix_linalg.Mat.t -> bool
(** Conversion-tolerant verification of a tile that was rounded into
    [scalar] since the stamp was taken: dimensions match and the
    Frobenius norm moved by at most
    [2·(u·fro + (d/2)·√(rows·cols))], with [u] the format's {!Geomix_precision.Fpformat.scalar_unit_roundoff} and
    [d] its {!Geomix_precision.Fpformat.scalar_min_subnormal} — the
    error-analysis bound on the norm movement of a lawful rounding, with
    the safety factor absorbing the binary64 rounding of the norm
    computation itself.  A non-finite norm (overflow to infinity in
    transit) always fails.  [S_fp64] (the identity conversion) degrades
    to the exact check. *)

val to_string : t -> string
(** Debug rendering. *)
