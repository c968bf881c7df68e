module Fpformat = Geomix_precision.Fpformat
module Rng = Geomix_util.Rng

type fidelity = Per_op | Boundary

(* Boundary kernels round their operands into scratch tiles recycled
   through one free list keyed by shape, instead of a fresh copy per call.
   The list is shared under a mutex rather than kept per domain: pool tasks
   run on several systhreads of one domain, so a per-domain tile could be
   handed to two running kernels at once.  At most [scratch_keep] tiles per
   shape are kept; a tile lost to an exception is simply collected. *)
let scratch_lock = Mutex.create ()
let scratch : (int * int, Mat.t list) Hashtbl.t = Hashtbl.create 8
let scratch_keep = 8

(* [rounded_scratch s m] is a scratch tile holding [Mat.rounded s m]; hand
   it back with [release]. *)
let rounded_scratch s m =
  let key = (Mat.rows m, Mat.cols m) in
  let recycled =
    Mutex.protect scratch_lock (fun () ->
      match Hashtbl.find_opt scratch key with
      | Some (t :: rest) ->
        Hashtbl.replace scratch key rest;
        Some t
      | _ -> None)
  in
  let t =
    match recycled with
    | Some t ->
      Mat.blit ~src:m ~dst:t;
      t
    | None -> Mat.copy m
  in
  Mat.round_inplace s t;
  t

let release t =
  let key = (Mat.rows t, Mat.cols t) in
  Mutex.protect scratch_lock (fun () ->
    let free = Option.value ~default:[] (Hashtbl.find_opt scratch key) in
    if List.length free < scratch_keep then Hashtbl.replace scratch key (t :: free))

let gemm_nt_per_op ~prec ~alpha a b ~beta c =
  let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
  let r = Fpformat.round sa in
  let ar = Mat.rounded si a and br = Mat.rounded si b in
  let m = Mat.rows a and k = Mat.cols a and n = Mat.rows b in
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      let acc = ref (r (beta *. Mat.unsafe_get c i j)) in
      for p = 0 to k - 1 do
        (* Tensor cores form exact products of the rounded inputs and round
           only the accumulation. *)
        let prod = alpha *. Mat.unsafe_get ar i p *. Mat.unsafe_get br j p in
        acc := r (!acc +. prod)
      done;
      Mat.unsafe_set c i j !acc
    done
  done

let gemm_nt_boundary ~prec ~alpha a b ~beta c =
  let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
  let ar = rounded_scratch si a and br = rounded_scratch si b in
  Blas.gemm_nt ~alpha ar br ~beta c;
  release ar;
  release br;
  Mat.round_inplace sa c

let gemm_nt ~fidelity ~prec ~alpha a b ~beta c =
  match (fidelity, prec) with
  | _, Fpformat.Fp64 -> Blas.gemm_nt ~alpha a b ~beta c
  | Per_op, _ -> gemm_nt_per_op ~prec ~alpha a b ~beta c
  | Boundary, _ -> gemm_nt_boundary ~prec ~alpha a b ~beta c

let syrk_lower_per_op ~prec ~alpha a ~beta c =
  let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
  let r = Fpformat.round sa in
  let ar = Mat.rounded si a in
  let n = Mat.rows a and k = Mat.cols a in
  for j = 0 to n - 1 do
    for i = j to n - 1 do
      let acc = ref (r (beta *. Mat.unsafe_get c i j)) in
      for p = 0 to k - 1 do
        let prod = alpha *. Mat.unsafe_get ar i p *. Mat.unsafe_get ar j p in
        acc := r (!acc +. prod)
      done;
      Mat.unsafe_set c i j !acc
    done
  done

let syrk_lower ~fidelity ~prec ~alpha a ~beta c =
  match (fidelity, prec) with
  | _, Fpformat.Fp64 -> Blas.syrk_lower ~alpha a ~beta c
  | Per_op, _ -> syrk_lower_per_op ~prec ~alpha a ~beta c
  | Boundary, _ ->
    let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
    let ar = rounded_scratch si a in
    Blas.syrk_lower ~alpha ar ~beta c;
    release ar;
    Mat.round_inplace sa c

let trsm_per_op ~prec ~l b =
  let sa = Fpformat.accum_scalar prec in
  let r = Fpformat.round sa in
  let lr = Mat.rounded sa l in
  let n = Mat.cols b and m = Mat.rows b in
  for j = 0 to n - 1 do
    for p = 0 to j - 1 do
      let ljp = Mat.unsafe_get lr j p in
      if ljp <> 0. then
        for i = 0 to m - 1 do
          Mat.unsafe_set b i j
            (r (Mat.unsafe_get b i j -. r (Mat.unsafe_get b i p *. ljp)))
        done
    done;
    let d = Mat.unsafe_get lr j j in
    for i = 0 to m - 1 do
      Mat.unsafe_set b i j (r (Mat.unsafe_get b i j /. d))
    done
  done

let trsm_right_lower_trans ~fidelity ~prec ~l b =
  match (fidelity, prec) with
  | _, Fpformat.Fp64 -> Blas.trsm_right_lower_trans ~l b
  | Per_op, _ ->
    Mat.round_inplace (Fpformat.accum_scalar prec) b;
    trsm_per_op ~prec ~l b
  | Boundary, _ ->
    let sa = Fpformat.accum_scalar prec in
    let lr = rounded_scratch sa l in
    Mat.round_inplace sa b;
    Blas.trsm_right_lower_trans ~l:lr b;
    release lr;
    Mat.round_inplace sa b

let potrf_per_op ~prec a =
  let sa = Fpformat.accum_scalar prec in
  let r = Fpformat.round sa in
  let n = Mat.rows a in
  Mat.round_inplace sa a;
  for j = 0 to n - 1 do
    let s = ref (Mat.unsafe_get a j j) in
    for p = 0 to j - 1 do
      let x = Mat.unsafe_get a j p in
      s := r (!s -. r (x *. x))
    done;
    if not (!s > 0.) then raise (Blas.Not_positive_definite j);
    let d = r (sqrt !s) in
    Mat.unsafe_set a j j d;
    for i = j + 1 to n - 1 do
      let s = ref (Mat.unsafe_get a i j) in
      for p = 0 to j - 1 do
        s := r (!s -. r (Mat.unsafe_get a i p *. Mat.unsafe_get a j p))
      done;
      Mat.unsafe_set a i j (r (!s /. d))
    done
  done

let potrf_lower ~fidelity ~prec a =
  match (fidelity, prec) with
  | _, Fpformat.Fp64 -> Blas.potrf_lower a
  | Per_op, _ -> potrf_per_op ~prec a
  | Boundary, _ ->
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
  gemm_nt ~fidelity:Per_op ~prec ~alpha:1. a b ~beta:0. c;
  Mat.rel_diff c ~reference:c_ref
