module Fpformat = Geomix_precision.Fpformat
module Mat = Geomix_linalg.Mat

type t = { fnv : int64; fro : float; rows : int; cols : int }

(* FNV-1a over the 8-byte binary64 images of the entries, column-major —
   the order the Bigarray stores them, so the hash is a pure function of
   the tile's byte image.  The dimensions are folded in first so two tiles
   whose flattened payloads coincide but whose shapes differ still hash
   apart. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let[@inline] fnv_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int b)) fnv_prime

let fnv_int64 h bits =
  let h = ref h in
  for k = 0 to 7 do
    h := fnv_byte !h (Int64.to_int (Int64.shift_right_logical bits (8 * k)) land 0xff)
  done;
  !h

let hash m =
  let rows = Mat.rows m and cols = Mat.cols m in
  let h = ref (fnv_int64 (fnv_int64 fnv_offset (Int64.of_int rows)) (Int64.of_int cols)) in
  for j = 0 to cols - 1 do
    for i = 0 to rows - 1 do
      h := fnv_int64 !h (Int64.bits_of_float (Mat.unsafe_get m i j))
    done
  done;
  !h

let stamp m = { fnv = hash m; fro = Mat.frobenius m; rows = Mat.rows m; cols = Mat.cols m }

let bytes t = 8 * t.rows * t.cols

let dims_match t m = t.rows = Mat.rows m && t.cols = Mat.cols m

let matches t m = dims_match t m && Int64.equal t.fnv (hash m)

(* Rounding every entry of A into a format with unit roundoff u and
   subnormal spacing d moves each entry by at most u·|a_ij| (normal range)
   plus d/2 (gradual underflow), so
   |‖round(A)‖_F − ‖A‖_F| ≤ ‖round(A) − A‖_F ≤ u·‖A‖_F + (d/2)·√(rows·cols).
   The safety factor 2 absorbs the binary64 rounding of the norm
   computation itself. *)
let conv_tolerance ~u_low ~tiny t =
  2. *. ((u_low *. t.fro) +. (0.5 *. tiny *. sqrt (float_of_int (t.rows * t.cols))))

let matches_scalar t ~scalar m =
  match scalar with
  | Fpformat.S_fp64 -> matches t m
  | s ->
    dims_match t m
    &&
    let fro = Mat.frobenius m in
    Float.is_finite fro
    && Float.abs (fro -. t.fro)
       <= conv_tolerance
            ~u_low:(Fpformat.scalar_unit_roundoff s)
            ~tiny:(Fpformat.scalar_min_subnormal s)
            t

let to_string t =
  Printf.sprintf "{fnv=%Lx; fro=%.17g; %dx%d}" t.fnv t.fro t.rows t.cols
