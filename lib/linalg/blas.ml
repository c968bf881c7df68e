exception Not_positive_definite of int

(* The Cholesky tile updates [gemm_nt], [syrk_lower] and
   [trsm_right_lower_trans] index the column-major buffers directly (see
   {!Mat.data}): with [-opaque], [Mat.unsafe_get] from here is an
   out-of-line call returning a boxed float, several words of garbage per
   inner iteration.  The loop order, the operation order inside each update
   and the [<> 0.] skips are those of the plain [Mat.unsafe_get]
   formulation, so results are bitwise the same. *)

module A1 = Bigarray.Array1

let gemm_nt ~alpha a b ~beta c =
  let m = Mat.rows a and k = Mat.cols a and n = Mat.rows b in
  assert (Mat.cols b = k);
  assert (Mat.rows c = m && Mat.cols c = n);
  if beta <> 1. then Mat.scale c beta;
  let ad = Mat.data a and bd = Mat.data b and cd = Mat.data c in
  for j = 0 to n - 1 do
    let cj = j * m in
    for p = 0 to k - 1 do
      let bjp = alpha *. A1.unsafe_get bd (j + (p * n)) in
      if bjp <> 0. then begin
        let ap = p * m in
        for i = 0 to m - 1 do
          let ci = cj + i in
          A1.unsafe_set cd ci (A1.unsafe_get cd ci +. (A1.unsafe_get ad (ap + i) *. bjp))
        done
      end
    done
  done

let syrk_lower ~alpha a ~beta c =
  let n = Mat.rows a and k = Mat.cols a in
  assert (Mat.rows c = n && Mat.cols c = n);
  let ad = Mat.data a and cd = Mat.data c in
  if beta <> 1. then
    for j = 0 to n - 1 do
      let cj = j * n in
      for i = j to n - 1 do
        A1.unsafe_set cd (cj + i) (beta *. A1.unsafe_get cd (cj + i))
      done
    done;
  for j = 0 to n - 1 do
    let cj = j * n in
    for p = 0 to k - 1 do
      let ap = p * n in
      let ajp = alpha *. A1.unsafe_get ad (ap + j) in
      if ajp <> 0. then
        for i = j to n - 1 do
          let ci = cj + i in
          A1.unsafe_set cd ci (A1.unsafe_get cd ci +. (A1.unsafe_get ad (ap + i) *. ajp))
        done
    done
  done

let trsm_right_lower_trans ~l b =
  let n = Mat.cols b and m = Mat.rows b in
  assert (Mat.rows l = n && Mat.cols l = n);
  let ld = Mat.data l and bd = Mat.data b in
  (* Solve X·Lᵀ = B column block by column block:
     X(:,j) = (B(:,j) − Σ_{p<j} X(:,p)·L(j,p)) / L(j,j). *)
  for j = 0 to n - 1 do
    let bj = j * m in
    for p = 0 to j - 1 do
      let ljp = A1.unsafe_get ld (j + (p * n)) in
      if ljp <> 0. then begin
        let bp = p * m in
        for i = 0 to m - 1 do
          let bi = bj + i in
          A1.unsafe_set bd bi (A1.unsafe_get bd bi -. (A1.unsafe_get bd (bp + i) *. ljp))
        done
      end
    done;
    let d = A1.unsafe_get ld (j + (j * n)) in
    for i = 0 to m - 1 do
      A1.unsafe_set bd (bj + i) (A1.unsafe_get bd (bj + i) /. d)
    done
  done

let trsm_left_lower_notrans ~l b =
  let m = Mat.rows b and n = Mat.cols b in
  assert (Mat.rows l = m && Mat.cols l = m);
  (* Forward substitution down each column of B. *)
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      let s = ref (Mat.unsafe_get b i j) in
      for p = 0 to i - 1 do
        s := !s -. (Mat.unsafe_get l i p *. Mat.unsafe_get b p j)
      done;
      Mat.unsafe_set b i j (!s /. Mat.unsafe_get l i i)
    done
  done

let potrf_lower a =
  let n = Mat.rows a in
  assert (Mat.cols a = n);
  for j = 0 to n - 1 do
    (* Pivot: A(j,j) − Σ_{p<j} A(j,p)². *)
    let s = ref (Mat.unsafe_get a j j) in
    for p = 0 to j - 1 do
      let x = Mat.unsafe_get a j p in
      s := !s -. (x *. x)
    done;
    if not (!s > 0.) then raise (Not_positive_definite j);
    let d = sqrt !s in
    Mat.unsafe_set a j j d;
    for i = j + 1 to n - 1 do
      let s = ref (Mat.unsafe_get a i j) in
      for p = 0 to j - 1 do
        s := !s -. (Mat.unsafe_get a i p *. Mat.unsafe_get a j p)
      done;
      Mat.unsafe_set a i j (!s /. d)
    done
  done

let trsv_lower ~l b =
  let n = Mat.rows l in
  assert (Array.length b = n);
  let y = Array.copy b in
  for i = 0 to n - 1 do
    let s = ref y.(i) in
    for p = 0 to i - 1 do
      s := !s -. (Mat.unsafe_get l i p *. y.(p))
    done;
    y.(i) <- !s /. Mat.unsafe_get l i i
  done;
  y

let trsv_lower_trans ~l b =
  let n = Mat.rows l in
  assert (Array.length b = n);
  let x = Array.copy b in
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for p = i + 1 to n - 1 do
      s := !s -. (Mat.unsafe_get l p i *. x.(p))
    done;
    x.(i) <- !s /. Mat.unsafe_get l i i
  done;
  x

let cholesky a =
  let l = Mat.copy a in
  potrf_lower l;
  Mat.zero_upper l;
  l

let log_det_from_chol l =
  let n = Mat.rows l in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. log (Mat.unsafe_get l i i)
  done;
  2. *. !acc
