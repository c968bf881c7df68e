let qr_thin a =
  let m = Mat.rows a and k = Mat.cols a in
  assert (m >= k);
  let r = Mat.copy a in
  (* Householder vectors stored per column; Q accumulated explicitly. *)
  let vs = Array.make k [||] in
  for j = 0 to k - 1 do
    (* Build the reflector annihilating r(j+1:, j). *)
    let alpha = ref 0. in
    for i = j to m - 1 do
      let x = Mat.unsafe_get r i j in
      alpha := !alpha +. (x *. x)
    done;
    let alpha = sqrt !alpha in
    let rjj = Mat.unsafe_get r j j in
    let beta = if rjj >= 0. then -.alpha else alpha in
    let v = Array.make (m - j) 0. in
    if alpha > 0. then begin
      v.(0) <- rjj -. beta;
      for i = j + 1 to m - 1 do
        v.(i - j) <- Mat.unsafe_get r i j
      done;
      let vnorm2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. v in
      if vnorm2 > 0. then begin
        (* Apply I − 2vvᵀ/‖v‖² to the trailing columns of R. *)
        for c = j to k - 1 do
          let dot = ref 0. in
          for i = j to m - 1 do
            dot := !dot +. (v.(i - j) *. Mat.unsafe_get r i c)
          done;
          let s = 2. *. !dot /. vnorm2 in
          for i = j to m - 1 do
            Mat.unsafe_set r i c (Mat.unsafe_get r i c -. (s *. v.(i - j)))
          done
        done
      end
    end;
    vs.(j) <- v
  done;
  (* Q = H_0 · … · H_{k-1} · [I_k; 0], applied column by column. *)
  let q = Mat.create ~rows:m ~cols:k in
  for c = 0 to k - 1 do
    let col = Array.make m 0. in
    col.(c) <- 1.;
    for j = k - 1 downto 0 do
      let v = vs.(j) in
      let vnorm2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. v in
      if vnorm2 > 0. then begin
        let dot = ref 0. in
        for i = j to m - 1 do
          dot := !dot +. (v.(i - j) *. col.(i))
        done;
        let s = 2. *. !dot /. vnorm2 in
        for i = j to m - 1 do
          col.(i) <- col.(i) -. (s *. v.(i - j))
        done
      end
    done;
    for i = 0 to m - 1 do
      Mat.unsafe_set q i c col.(i)
    done
  done;
  let rk = Mat.create ~rows:k ~cols:k in
  for j = 0 to k - 1 do
    for i = 0 to j do
      Mat.unsafe_set rk i j (Mat.unsafe_get r i j)
    done
  done;
  (q, rk)

let svd_jacobi a =
  let m = Mat.rows a and n = Mat.cols a in
  let u = Mat.copy a in
  let v = Mat.identity n in
  let eps = 1e-15 in
  let converged = ref false in
  let sweeps = ref 0 in
  while (not !converged) && !sweeps < 60 do
    converged := true;
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        (* Column moments of the implicit AᵀA. *)
        let app = ref 0. and aqq = ref 0. and apq = ref 0. in
        for i = 0 to m - 1 do
          let x = Mat.unsafe_get u i p and y = Mat.unsafe_get u i q in
          app := !app +. (x *. x);
          aqq := !aqq +. (y *. y);
          apq := !apq +. (x *. y)
        done;
        if Float.abs !apq > eps *. sqrt (!app *. !aqq) && !apq <> 0. then begin
          converged := false;
          let tau = (!aqq -. !app) /. (2. *. !apq) in
          let t =
            (if tau >= 0. then 1. else -1.)
            /. (Float.abs tau +. sqrt (1. +. (tau *. tau)))
          in
          let c = 1. /. sqrt (1. +. (t *. t)) in
          let s = c *. t in
          (* Rotate columns p,q of U and of V. *)
          for i = 0 to m - 1 do
            let x = Mat.unsafe_get u i p and y = Mat.unsafe_get u i q in
            Mat.unsafe_set u i p ((c *. x) -. (s *. y));
            Mat.unsafe_set u i q ((s *. x) +. (c *. y))
          done;
          for i = 0 to n - 1 do
            let x = Mat.unsafe_get v i p and y = Mat.unsafe_get v i q in
            Mat.unsafe_set v i p ((c *. x) -. (s *. y));
            Mat.unsafe_set v i q ((s *. x) +. (c *. y))
          done
        end
      done
    done
  done;
  (* Column norms are the singular values; normalise U's columns. *)
  let sigma = Array.make n 0. in
  for j = 0 to n - 1 do
    let norm = ref 0. in
    for i = 0 to m - 1 do
      let x = Mat.unsafe_get u i j in
      norm := !norm +. (x *. x)
    done;
    let norm = sqrt !norm in
    sigma.(j) <- norm;
    if norm > 0. then
      for i = 0 to m - 1 do
        Mat.unsafe_set u i j (Mat.unsafe_get u i j /. norm)
      done
  done;
  (* Sort descending, permuting U and V consistently. *)
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare sigma.(j) sigma.(i)) order;
  let u' = Mat.init ~rows:m ~cols:n (fun i j -> Mat.unsafe_get u i order.(j)) in
  let v' = Mat.init ~rows:n ~cols:n (fun i j -> Mat.unsafe_get v i order.(j)) in
  let sigma' = Array.map (fun j -> sigma.(j)) order in
  (u', sigma', v')

let truncate_rank ~tol sigma =
  let n = Array.length sigma in
  if n = 0 then 0
  else begin
    (* tail²(r) = Σ_{i≥r} σᵢ² — keep the smallest r with tail ≤ tol. *)
    let tail2 = Array.make (n + 1) 0. in
    for i = n - 1 downto 0 do
      tail2.(i) <- tail2.(i + 1) +. (sigma.(i) *. sigma.(i))
    done;
    let rec find r = if r >= n || sqrt tail2.(r) <= tol then r else find (r + 1) in
    Stdlib.max 1 (find 0)
  end
