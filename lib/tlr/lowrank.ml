open Geomix_linalg
module Fpformat = Geomix_precision.Fpformat

type t = { u : Mat.t; v : Mat.t }

let rank t = Mat.cols t.u
let rows t = Mat.rows t.u
let cols t = Mat.rows t.v

let to_dense t =
  let d = Mat.create ~rows:(rows t) ~cols:(cols t) in
  Blas.gemm_nt ~alpha:1. t.u t.v ~beta:0. d;
  d

(* Fully-pivoted ACA on an explicit residual copy. *)
let aca ~tol ~max_rank a =
  let m = Mat.rows a and n = Mat.cols a in
  let r = Mat.copy a in
  let us = ref [] and vs = ref [] in
  let rec step k =
    if k > max_rank then None
    else begin
      (* Global pivot and residual norm in one pass. *)
      let bi = ref 0 and bj = ref 0 and best = ref 0. and fro2 = ref 0. in
      for j = 0 to n - 1 do
        for i = 0 to m - 1 do
          let x = Float.abs (Mat.unsafe_get r i j) in
          fro2 := !fro2 +. (x *. x);
          if x > !best then begin
            best := x;
            bi := i;
            bj := j
          end
        done
      done;
      if sqrt !fro2 <= tol then Some k
      else if k = max_rank || !best = 0. then None
      else begin
        let piv = Mat.unsafe_get r !bi !bj in
        let ucol = Array.init m (fun i -> Mat.unsafe_get r i !bj /. piv) in
        let vcol = Array.init n (fun j -> Mat.unsafe_get r !bi j) in
        us := ucol :: !us;
        vs := vcol :: !vs;
        for j = 0 to n - 1 do
          let vj = vcol.(j) in
          if vj <> 0. then
            for i = 0 to m - 1 do
              Mat.unsafe_set r i j (Mat.unsafe_get r i j -. (ucol.(i) *. vj))
            done
        done;
        step (k + 1)
      end
    end
  in
  match step 0 with
  | None -> None
  | Some k ->
    let k = Stdlib.max k 1 in
    let us = Array.of_list (List.rev !us) and vs = Array.of_list (List.rev !vs) in
    let u = Mat.create ~rows:m ~cols:k and v = Mat.create ~rows:n ~cols:k in
    for c = 0 to k - 1 do
      (* Rank 0 (exact zero matrix) keeps one zero column for regularity. *)
      if c < Array.length us then begin
        for i = 0 to m - 1 do
          Mat.unsafe_set u i c us.(c).(i)
        done;
        for j = 0 to n - 1 do
          Mat.unsafe_set v j c vs.(c).(j)
        done
      end
    done;
    Some { u; v }

let of_dense ~tol a =
  let cap = Stdlib.max 1 (Stdlib.min (Mat.rows a) (Mat.cols a) / 2) in
  aca ~tol ~max_rank:cap a

let recompress ~tol t =
  let k = rank t in
  if k <= 1 then t
  else begin
    let qu, ru = Factor.qr_thin t.u in
    let qv, rv = Factor.qr_thin t.v in
    (* core = Ru·Rvᵀ is k×k. *)
    let core = Mat.create ~rows:k ~cols:k in
    Blas.gemm_nt ~alpha:1. ru rv ~beta:0. core;
    let uc, sigma, vc = Factor.svd_jacobi core in
    let r = Stdlib.min (Factor.truncate_rank ~tol sigma) k in
    (* U' = Qu·Uc·diag(σ) (first r cols), V' = Qv·Vc (first r cols). *)
    let ucr = Mat.sub_view_copy uc ~row:0 ~col:0 ~rows:k ~cols:r in
    for c = 0 to r - 1 do
      for i = 0 to k - 1 do
        Mat.unsafe_set ucr i c (Mat.unsafe_get ucr i c *. sigma.(c))
      done
    done;
    let vcr = Mat.sub_view_copy vc ~row:0 ~col:0 ~rows:k ~cols:r in
    let u' = Mat.create ~rows:(rows t) ~cols:r in
    Blas.gemm_nt ~alpha:1. qu (Mat.transpose ucr) ~beta:0. u';
    let v' = Mat.create ~rows:(cols t) ~cols:r in
    Blas.gemm_nt ~alpha:1. qv (Mat.transpose vcr) ~beta:0. v';
    { u = u'; v = v' }
  end

let add ?(scale = 1.) a b =
  assert (rows a = rows b && cols a = cols b);
  let ka = rank a and kb = rank b in
  let u = Mat.create ~rows:(rows a) ~cols:(ka + kb) in
  let v = Mat.create ~rows:(cols a) ~cols:(ka + kb) in
  Mat.set_block u ~row:0 ~col:0 a.u;
  Mat.set_block v ~row:0 ~col:0 a.v;
  let bu = Mat.copy b.u in
  Mat.scale bu scale;
  Mat.set_block u ~row:0 ~col:ka bu;
  Mat.set_block v ~row:0 ~col:ka b.v;
  { u; v }

let matvec t x = Mat.matvec t.u (Mat.matvec_trans t.v x)
let matvec_trans t x = Mat.matvec t.v (Mat.matvec_trans t.u x)

let memory_floats t = (rows t + cols t) * rank t

let round_factors scalar t =
  { u = Mat.rounded scalar t.u; v = Mat.rounded scalar t.v }
