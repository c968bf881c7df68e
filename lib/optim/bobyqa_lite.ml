type result = { x : float array; fval : float; evals : int; converged : bool }

let minimize ?max_evals ?(tol = 1e-9) ~lower ~upper ~x0 f =
  let dim = Array.length x0 in
  assert (dim > 0 && Array.length lower = dim && Array.length upper = dim);
  let max_evals = match max_evals with Some m -> m | None -> 500 * dim in
  let width = Array.init dim (fun i -> upper.(i) -. lower.(i)) in
  let min_width = Array.fold_left Float.min width.(0) width in
  let clip i v = Float.min upper.(i) (Float.max lower.(i) v) in
  let evals = ref 0 in
  let eval x =
    incr evals;
    f x
  in
  let x = Array.mapi (fun i v -> clip i v) x0 in
  let fx = ref (eval x) in
  let rho = ref (0.25 *. min_width) in
  let rho_end = tol *. min_width in
  let converged = ref false in
  while (not !converged) && !evals + (2 * dim) + 1 <= max_evals && !rho > rho_end do
    (* Build a diagonal quadratic model from a coordinate stencil. *)
    let g = Array.make dim 0. and h = Array.make dim 0. in
    for i = 0 to dim - 1 do
      let step = Float.min !rho (0.5 *. width.(i)) in
      let xp = Array.copy x and xm = Array.copy x in
      xp.(i) <- clip i (x.(i) +. step);
      xm.(i) <- clip i (x.(i) -. step);
      let dp = xp.(i) -. x.(i) and dm = xm.(i) -. x.(i) in
      if dp = 0. && dm = 0. then ()
      else begin
        let fp = if dp = 0. then !fx else eval xp in
        let fm = if dm = 0. then !fx else eval xm in
        (* Quadratic interpolation through (dm,fm), (0,fx), (dp,fp). *)
        if dp <> 0. && dm <> 0. then begin
          g.(i) <- ((fp -. fm) /. (dp -. dm))
                   -. ((dp +. dm) *. (((fp -. !fx) /. dp) -. ((fm -. !fx) /. dm))
                      /. (dp -. dm));
          h.(i) <- 2. *. (((fp -. !fx) /. dp) -. ((fm -. !fx) /. dm)) /. (dp -. dm)
        end
        else begin
          let d = if dp <> 0. then dp else dm in
          let fv = if dp <> 0. then fp else fm in
          g.(i) <- (fv -. !fx) /. d;
          h.(i) <- 0.
        end
      end
    done;
    (* Minimise the separable model within the trust region and the box. *)
    let cand = Array.copy x in
    for i = 0 to dim - 1 do
      let d =
        if h.(i) > 1e-300 then -.g.(i) /. h.(i)
        else if g.(i) > 0. then -. !rho
        else if g.(i) < 0. then !rho
        else 0.
      in
      let d = Float.min !rho (Float.max (-. !rho) d) in
      cand.(i) <- clip i (x.(i) +. d)
    done;
    let fc = if Array.exists2 (fun a b -> a <> b) cand x then eval cand else !fx in
    if fc < !fx -. (1e-12 *. (1. +. Float.abs !fx)) then begin
      Array.blit cand 0 x 0 dim;
      fx := fc
      (* Successful step: keep the radius. *)
    end
    else rho := !rho /. 2.5;
    if !rho <= rho_end then converged := true
  done;
  { x; fval = !fx; evals = !evals; converged = !converged }
