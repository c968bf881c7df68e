(* Differential oracles.

   Two independent re-derivations of the paper's core results, used by the
   property suites to cross-check the optimized implementations:

   - [comm_reference] is a deliberately naive O(NT³) reimplementation of
     Algorithm 2: for every broadcasting tile it enumerates *all* consumer
     kernels, takes the highest input format any of them needs, caps at the
     storage format and declares STC iff the result is strictly below
     storage.  [Comm_map.compute] short-circuits those scans; the two must
     agree tile-for-tile on any precision map.

   - [factor_residual] / [residual_bound] check the mixed-precision
     Cholesky against the FP64 reference: the relative residual
     ‖A − LLᵀ‖/‖A‖ of a factorization that executes tile (i,j) with rule
     epsilon ε(i,j) is bounded (Higham–Mary-style, as the paper's norm rule
     presumes) by c · NT · max_ij ε(i,j)·‖A_ij‖/‖A‖ plus the FP64 floor. *)

module Fpformat = Geomix_precision.Fpformat
module Fp = Fpformat
module Pm = Geomix_core.Precision_map
module Cm = Geomix_core.Comm_map
module Mp = Geomix_core.Mp_cholesky
module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Check = Geomix_linalg.Check
module Tiled = Geomix_tile.Tiled

(* --- Algorithm 2, brute force ----------------------------------------- *)

(* Shipped format and strategy of broadcast tile (i, j) ≥ diagonal, by
   direct enumeration of every consumer. *)
let comm_reference pmap i j =
  let nt = Pm.nt pmap in
  let storage = Pm.storage pmap i j in
  let cap c =
    if Fp.scalar_rank c < Fp.scalar_rank storage then (c, Cm.Stc) else (storage, Cm.Ttc)
  in
  if i = j then begin
    let k = i in
    if k = nt - 1 then (storage, Cm.Ttc) (* no successors: nothing ships *)
    else begin
      (* POTRF(k) feeds every TRSM(m,k); TRSM never executes below FP32. *)
      let c = ref Fp.S_fp32 in
      for m = k + 1 to nt - 1 do
        let trsm_in =
          match Pm.get pmap m k with Fp.Fp64 -> Fp.S_fp64 | _ -> Fp.S_fp32
        in
        c := Fp.higher_scalar !c trsm_in
      done;
      cap !c
    end
  end
  else begin
    let m = i and k = j in
    (* TRSM(m,k) feeds SYRK(m,k) (which consumes whatever ships), the row
       GEMMs (m,n,k) for k < n < m and the column GEMMs (m',m,k) for
       m < m' < NT.  The floor is the tile's own input significance. *)
    let c = ref (Fp.input_scalar (Pm.get pmap m k)) in
    for n = k + 1 to m - 1 do
      c := Fp.higher_scalar !c (Fp.input_scalar (Pm.get pmap m n))
    done;
    for m' = m + 1 to nt - 1 do
      c := Fp.higher_scalar !c (Fp.input_scalar (Pm.get pmap m' m))
    done;
    cap !c
  end

(* Tiles where [Comm_map.compute] disagrees with the brute-force rule:
   (i, j, (scalar, strategy) expected, (scalar, strategy) got). *)
let comm_mismatches pmap =
  let cm = Cm.compute pmap in
  let out = ref [] in
  for i = Pm.nt pmap - 1 downto 0 do
    for j = i downto 0 do
      let expected = comm_reference pmap i j in
      let got = (Cm.comm_scalar cm i j, Cm.strategy cm i j) in
      if expected <> got then out := (i, j, expected, got) :: !out
    done
  done;
  !out

let comm_map_agrees pmap = comm_mismatches pmap = []

(* --- mixed-precision Cholesky vs the FP64 reference -------------------- *)

let residual_bound ?(c = 64.) ~pmap tiled =
  let nt = Tiled.nt tiled in
  let gnorm = Tiled.frobenius tiled in
  let worst = ref 0. in
  for i = 0 to nt - 1 do
    for j = 0 to i do
      let e = Fp.rule_epsilon (Pm.get pmap i j) in
      let r = Tiled.tile_frobenius tiled i j /. gnorm in
      if e *. r > !worst then worst := e *. r
    done
  done;
  (c *. float_of_int nt *. !worst) +. 1e-13

(* Relative residual ‖A − LLᵀ‖/‖A‖ of the mixed-precision factorization of
   [dense] under [pmap]. *)
let factor_residual ?pool ~pmap ~nb dense =
  let a = Tiled.of_dense ~nb dense in
  Mp.factorize ?pool ~pmap a;
  let l = Tiled.to_dense a in
  Mat.zero_upper l;
  Check.cholesky_residual ~a:dense ~l

(* The differential check itself: factorize under [pmap], factorize in pure
   FP64, return (mixed residual, bound, fp64 residual).  The caller asserts
   residual ≤ bound and fp64_residual ≤ the FP64 floor. *)
let check_cholesky ?c ~pmap ~nb dense =
  let residual = factor_residual ~pmap ~nb dense in
  let bound = residual_bound ?c ~pmap (Tiled.of_dense ~nb dense) in
  let nt = Pm.nt pmap in
  let fp64 = factor_residual ~pmap:(Pm.uniform ~nt Fp.Fp64) ~nb dense in
  (residual, bound, fp64)
