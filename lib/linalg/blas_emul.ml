module Fpformat = Geomix_precision.Fpformat
module Rng = Geomix_util.Rng

(* Fig 1's accuracy model: tensor cores form exact products of the rounded
   inputs and round every accumulation. *)
let gemm_nt_per_op ~prec ~alpha a b ~beta c =
  let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
  let r = Fpformat.round sa in
  let ar = Mat.rounded si a and br = Mat.rounded si b in
  let m = Mat.rows a and k = Mat.cols a and n = Mat.rows b in
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      let acc = ref (r (beta *. Mat.unsafe_get c i j)) in
      for p = 0 to k - 1 do
        let prod = alpha *. Mat.unsafe_get ar i p *. Mat.unsafe_get br j p in
        acc := r (!acc +. prod)
      done;
      Mat.unsafe_set c i j !acc
    done
  done

(* The kernels round their operands into scratch tiles from [Buf_pool],
   given back when the kernel returns, instead of a fresh copy per call. *)
let gemm_nt ~prec ~alpha a b ~beta c =
  match prec with
  | Fpformat.Fp64 -> Blas.gemm_nt ~alpha a b ~beta c
  | _ ->
    let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
    let ar = Buf_pool.rounded si a and br = Buf_pool.rounded si b in
    Blas.gemm_nt ~alpha ar br ~beta c;
    Buf_pool.give ar;
    Buf_pool.give br;
    Mat.round_inplace sa c

let syrk_lower ~prec ~alpha a ~beta c =
  match prec with
  | Fpformat.Fp64 -> Blas.syrk_lower ~alpha a ~beta c
  | _ ->
    let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
    let ar = Buf_pool.rounded si a in
    Blas.syrk_lower ~alpha ar ~beta c;
    Buf_pool.give ar;
    Mat.round_inplace sa c

let trsm_right_lower_trans ~prec ~l b =
  match prec with
  | Fpformat.Fp64 -> Blas.trsm_right_lower_trans ~l b
  | _ ->
    let sa = Fpformat.accum_scalar prec in
    let lr = Buf_pool.rounded sa l in
    Mat.round_inplace sa b;
    Blas.trsm_right_lower_trans ~l:lr b;
    Buf_pool.give lr;
    Mat.round_inplace sa b

let potrf_lower ~prec a =
  match prec with
  | Fpformat.Fp64 -> Blas.potrf_lower a
  | _ ->
    let sa = Fpformat.accum_scalar prec in
    Mat.round_inplace sa a;
    Blas.potrf_lower a;
    Mat.round_inplace sa a

let gemm_accuracy ~prec ~n ~rng =
  let a = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.float rng) in
  let b = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.float rng) in
  let c_ref = Mat.create ~rows:n ~cols:n in
  Blas.gemm_nt ~alpha:1. a b ~beta:0. c_ref;
  let c = Mat.create ~rows:n ~cols:n in
  (match prec with
  | Fpformat.Fp64 -> Blas.gemm_nt ~alpha:1. a b ~beta:0. c
  | _ -> gemm_nt_per_op ~prec ~alpha:1. a b ~beta:0. c);
  Mat.rel_diff c ~reference:c_ref
