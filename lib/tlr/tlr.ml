open Geomix_linalg
open Geomix_tile
module Pm = Geomix_core.Precision_map
module Fpformat = Geomix_precision.Fpformat

type tile = Dense of Mat.t | Low_rank of Lowrank.t

type t = {
  nt : int;
  nb : int;
  n : int;
  tile_tol : float; (* absolute per-tile Frobenius tolerance *)
  tiles : tile array; (* packed lower triangle, mutable entries *)
  scalars : Fpformat.scalar array; (* storage format per tile *)
}

let pidx i j = (i * (i + 1) / 2) + j

let nt t = t.nt
let nb t = t.nb
let n t = t.n

let tile t i j =
  assert (i >= j && j >= 0 && i < t.nt);
  t.tiles.(pidx i j)

let compress ?precision ~tol tiled =
  let ntiles = Tiled.nt tiled in
  (match precision with
  | Some pmap when Pm.nt pmap <> ntiles ->
    invalid_arg "Tlr.compress: precision map / matrix tile mismatch"
  | _ -> ());
  let tile_tol = tol *. Tiled.frobenius tiled /. float_of_int ntiles in
  let storage i j =
    match precision with Some pmap -> Pm.storage pmap i j | None -> Fpformat.S_fp64
  in
  let size = ntiles * (ntiles + 1) / 2 in
  let scalars = Array.make size Fpformat.S_fp64 in
  let tiles =
    Array.init size (fun p ->
      (* Decode (i, j) from the packed index. *)
      let rec find i = if pidx (i + 1) 0 > p then i else find (i + 1) in
      let i = find 0 in
      let j = p - pidx i 0 in
      scalars.(p) <- storage i j;
      let m = Tiled.tile tiled i j in
      if i = j then Dense (Mat.rounded (storage i j) m)
      else begin
        match Lowrank.of_dense ~tol:tile_tol m with
        | Some lr -> Low_rank (Lowrank.round_factors (storage i j) lr)
        | None -> Dense (Mat.rounded (storage i j) m)
      end)
  in
  { nt = ntiles; nb = Tiled.nb tiled; n = Tiled.n tiled; tile_tol; tiles; scalars }

let tile_dense = function Dense d -> d | Low_rank lr -> Lowrank.to_dense lr

let to_dense t =
  let d = Mat.create ~rows:t.n ~cols:t.n in
  for i = 0 to t.nt - 1 do
    for j = 0 to i do
      let m = tile_dense (tile t i j) in
      let ri = i * t.nb and cj = j * t.nb in
      for c = 0 to Mat.cols m - 1 do
        for r = 0 to Mat.rows m - 1 do
          let v = Mat.unsafe_get m r c in
          Mat.unsafe_set d (ri + r) (cj + c) v;
          if i <> j then Mat.unsafe_set d (cj + c) (ri + r) v
        done
      done
    done
  done;
  d

let dense_floats t =
  let acc = ref 0 in
  for i = 0 to t.nt - 1 do
    for j = 0 to i do
      let rows = Stdlib.min t.nb (t.n - (i * t.nb)) in
      let cols = Stdlib.min t.nb (t.n - (j * t.nb)) in
      acc := !acc + (rows * cols)
    done
  done;
  !acc

let stored_floats t =
  Array.fold_left
    (fun acc -> function
      | Dense d -> acc + (Mat.rows d * Mat.cols d)
      | Low_rank lr -> acc + Lowrank.memory_floats lr)
    0 t.tiles

let compression_ratio t = float_of_int (stored_floats t) /. float_of_int (dense_floats t)

let stored_bytes t =
  let acc = ref 0. in
  Array.iteri
    (fun p tile ->
      let width = float_of_int (Fpformat.scalar_bytes t.scalars.(p)) in
      let floats =
        match tile with
        | Dense d -> Mat.rows d * Mat.cols d
        | Low_rank lr -> Lowrank.memory_floats lr
      in
      acc := !acc +. (width *. float_of_int floats))
    t.tiles;
  !acc

let compression_ratio_bytes t =
  stored_bytes t /. (8. *. float_of_int (dense_floats t))

let mean_rank t =
  let total = ref 0 and count = ref 0 in
  Array.iter
    (function
      | Low_rank lr ->
        total := !total + Lowrank.rank lr;
        incr count
      | Dense _ -> ())
    t.tiles;
  if !count = 0 then 0. else float_of_int !total /. float_of_int !count

let low_rank_fraction t =
  let lr = ref 0 and off = ref 0 in
  for i = 0 to t.nt - 1 do
    for j = 0 to i - 1 do
      incr off;
      match tile t i j with Low_rank _ -> incr lr | Dense _ -> ()
    done
  done;
  if !off = 0 then 0. else float_of_int !lr /. float_of_int !off

(* C(dense) ← C − A·Bᵀ for tiles in any representation. *)
let gemm_into_dense c a b =
  match (a, b) with
  | Dense da, Dense db -> Blas.gemm_nt ~alpha:(-1.) da db ~beta:1. c
  | Low_rank la, Dense db ->
    (* U (V' B') = U (B V)' *)
    let w = Mat.create ~rows:(Mat.rows db) ~cols:(Lowrank.rank la) in
    Blas.gemm_nt ~alpha:1. db (Mat.transpose la.Lowrank.v) ~beta:0. w;
    Blas.gemm_nt ~alpha:(-1.) la.Lowrank.u w ~beta:1. c
  | Dense da, Low_rank lb ->
    (* A V_b U_b' *)
    let w = Mat.create ~rows:(Mat.rows da) ~cols:(Lowrank.rank lb) in
    Blas.gemm_nt ~alpha:1. da (Mat.transpose lb.Lowrank.v) ~beta:0. w;
    Blas.gemm_nt ~alpha:(-1.) w lb.Lowrank.u ~beta:1. c
  | Low_rank la, Low_rank lb ->
    (* U_a (V_a' V_b) U_b' *)
    let core = Mat.create ~rows:(Lowrank.rank la) ~cols:(Lowrank.rank lb) in
    Blas.gemm_nt ~alpha:1. (Mat.transpose la.Lowrank.v) (Mat.transpose lb.Lowrank.v)
      ~beta:0. core;
    let tmat = Mat.create ~rows:(Lowrank.rows la) ~cols:(Lowrank.rank lb) in
    Blas.gemm_nt ~alpha:1. la.Lowrank.u (Mat.transpose core) ~beta:0. tmat;
    Blas.gemm_nt ~alpha:(-1.) tmat lb.Lowrank.u ~beta:1. c

(* The product A·Bᵀ as a low-rank pair, when at least one operand is. *)
let product_lowrank a b =
  match (a, b) with
  | Low_rank la, Low_rank lb ->
    let ka = Lowrank.rank la and kb = Lowrank.rank lb in
    if ka <= kb then begin
      (* (U_a) · (U_b (V_b' V_a))' : rank ka *)
      let core = Mat.create ~rows:kb ~cols:ka in
      Blas.gemm_nt ~alpha:1. (Mat.transpose lb.Lowrank.v) (Mat.transpose la.Lowrank.v)
        ~beta:0. core;
      let v = Mat.create ~rows:(Lowrank.rows lb) ~cols:ka in
      Blas.gemm_nt ~alpha:1. lb.Lowrank.u (Mat.transpose core) ~beta:0. v;
      Some { Lowrank.u = Mat.copy la.Lowrank.u; v }
    end
    else begin
      let core = Mat.create ~rows:ka ~cols:kb in
      Blas.gemm_nt ~alpha:1. (Mat.transpose la.Lowrank.v) (Mat.transpose lb.Lowrank.v)
        ~beta:0. core;
      let u = Mat.create ~rows:(Lowrank.rows la) ~cols:kb in
      Blas.gemm_nt ~alpha:1. la.Lowrank.u (Mat.transpose core) ~beta:0. u;
      Some { Lowrank.u; v = Mat.copy lb.Lowrank.u }
    end
  | Low_rank la, Dense db ->
    let w = Mat.create ~rows:(Mat.rows db) ~cols:(Lowrank.rank la) in
    Blas.gemm_nt ~alpha:1. db (Mat.transpose la.Lowrank.v) ~beta:0. w;
    Some { Lowrank.u = Mat.copy la.Lowrank.u; v = w }
  | Dense da, Low_rank lb ->
    let w = Mat.create ~rows:(Mat.rows da) ~cols:(Lowrank.rank lb) in
    Blas.gemm_nt ~alpha:1. da (Mat.transpose lb.Lowrank.v) ~beta:0. w;
    Some { Lowrank.u = w; v = Mat.copy lb.Lowrank.u }
  | Dense _, Dense _ -> None

let cholesky ?tol t =
  let rtol = Option.value tol ~default:t.tile_tol in
  for k = 0 to t.nt - 1 do
    (* POTRF on the dense diagonal tile. *)
    let ckk =
      match tile t k k with
      | Dense d -> d
      | Low_rank _ -> invalid_arg "Tlr.cholesky: diagonal tiles must be dense"
    in
    Blas.potrf_lower ckk;
    (* TRSM down column k. *)
    for m = k + 1 to t.nt - 1 do
      (match tile t m k with
      | Dense d -> Blas.trsm_right_lower_trans ~l:ckk d
      | Low_rank lr -> Blas.trsm_left_lower_notrans ~l:ckk lr.Lowrank.v)
    done;
    (* SYRK and GEMM updates of the trailing matrix. *)
    for m = k + 1 to t.nt - 1 do
      let amk = tile t m k in
      let cmm =
        match tile t m m with Dense d -> d | Low_rank _ -> assert false
      in
      (match amk with
      | Dense d -> Blas.syrk_lower ~alpha:(-1.) d ~beta:1. cmm
      | Low_rank _ -> gemm_into_dense cmm amk amk);
      for nn = k + 1 to m - 1 do
        let ank = tile t nn k in
        match tile t m nn with
        | Dense c -> gemm_into_dense c amk ank
        | Low_rank cl -> (
          match product_lowrank amk ank with
          | Some upd ->
            let sum = Lowrank.add ~scale:(-1.) cl upd in
            t.tiles.(pidx m nn) <- Low_rank (Lowrank.recompress ~tol:rtol sum)
          | None ->
            (* Dense·Dense update densifies the target tile. *)
            let c = Lowrank.to_dense cl in
            gemm_into_dense c amk ank;
            t.tiles.(pidx m nn) <- Dense c)
      done
    done
  done;
  (* Leave clean lower factors on the diagonal. *)
  for k = 0 to t.nt - 1 do
    match tile t k k with Dense d -> Mat.zero_upper d | Low_rank _ -> ()
  done

let block_rows t i = Stdlib.min t.nb (t.n - (i * t.nb))

let tile_matvec rep x =
  match rep with Dense d -> Mat.matvec d x | Low_rank lr -> Lowrank.matvec lr x

let tile_matvec_trans rep x =
  match rep with
  | Dense d -> Mat.matvec_trans d x
  | Low_rank lr -> Lowrank.matvec_trans lr x

let solve_lower t b =
  assert (Array.length b = t.n);
  let y = Array.copy b in
  for i = 0 to t.nt - 1 do
    let ri = i * t.nb and rows = block_rows t i in
    let bi = Array.sub y ri rows in
    for j = 0 to i - 1 do
      let xj = Array.sub y (j * t.nb) (block_rows t j) in
      let contrib = tile_matvec (tile t i j) xj in
      Array.iteri (fun p v -> bi.(p) <- bi.(p) -. v) contrib
    done;
    let dii = match tile t i i with Dense d -> d | Low_rank _ -> assert false in
    let yi = Blas.trsv_lower ~l:dii bi in
    Array.blit yi 0 y ri rows
  done;
  y

let solve_lower_trans t b =
  assert (Array.length b = t.n);
  let x = Array.copy b in
  for i = t.nt - 1 downto 0 do
    let ri = i * t.nb and rows = block_rows t i in
    let bi = Array.sub x ri rows in
    for j = i + 1 to t.nt - 1 do
      let xj = Array.sub x (j * t.nb) (block_rows t j) in
      let contrib = tile_matvec_trans (tile t j i) xj in
      Array.iteri (fun p v -> bi.(p) <- bi.(p) -. v) contrib
    done;
    let dii = match tile t i i with Dense d -> d | Low_rank _ -> assert false in
    let xi = Blas.trsv_lower_trans ~l:dii bi in
    Array.blit xi 0 x ri rows
  done;
  x

let log_det t =
  let acc = ref 0. in
  for k = 0 to t.nt - 1 do
    match tile t k k with
    | Dense d ->
      for p = 0 to Mat.rows d - 1 do
        acc := !acc +. log (Mat.get d p p)
      done
    | Low_rank _ -> assert false
  done;
  2. *. !acc
