type result = { x : float array; fval : float; evals : int; converged : bool }

let clip lower upper x =
  Array.mapi (fun i v -> Float.min upper.(i) (Float.max lower.(i) v)) x

let minimize ?max_evals ?(tol = 1e-9) ~lower ~upper ~x0 f =
  let dim = Array.length x0 in
  assert (dim > 0 && Array.length lower = dim && Array.length upper = dim);
  Array.iteri (fun i lo -> assert (lo <= upper.(i))) lower;
  let max_evals = match max_evals with Some m -> m | None -> 500 * dim in
  let evals = ref 0 in
  let eval x =
    incr evals;
    f x
  in
  let project x = clip lower upper x in
  (* Initial simplex: x0 plus a step along each coordinate, reflected
     inward when the step would leave the box. *)
  let x0 = project x0 in
  let step i = 0.25 *. (upper.(i) -. lower.(i)) in
  let vertex i =
    if i = 0 then Array.copy x0
    else begin
      let v = Array.copy x0 in
      let j = i - 1 in
      let s = step j in
      let s = if v.(j) +. s > upper.(j) then -.s else s in
      v.(j) <- v.(j) +. s;
      project v
    end
  in
  let simplex = Array.init (dim + 1) vertex in
  let fvals = Array.map eval simplex in
  let order () =
    let idx = Array.init (dim + 1) Fun.id in
    Array.sort (fun a b -> Float.compare fvals.(a) fvals.(b)) idx;
    let s = Array.map (fun i -> simplex.(i)) idx in
    let fv = Array.map (fun i -> fvals.(i)) idx in
    Array.blit s 0 simplex 0 (dim + 1);
    Array.blit fv 0 fvals 0 (dim + 1)
  in
  let centroid () =
    let c = Array.make dim 0. in
    for i = 0 to dim - 1 do
      for j = 0 to dim - 1 do
        c.(j) <- c.(j) +. simplex.(i).(j)
      done
    done;
    Array.map (fun v -> v /. float_of_int dim) c
  in
  let combine c xr alpha =
    project (Array.init dim (fun j -> c.(j) +. (alpha *. (xr.(j) -. c.(j)))))
  in
  let converged () =
    let fspread = Float.abs (fvals.(dim) -. fvals.(0)) in
    let dspread = ref 0. in
    for i = 1 to dim do
      for j = 0 to dim - 1 do
        dspread := Float.max !dspread (Float.abs (simplex.(i).(j) -. simplex.(0).(j)))
      done
    done;
    fspread <= tol *. (1. +. Float.abs fvals.(0)) && !dspread <= tol *. (1. +. !dspread)
    || fspread <= tol && !dspread <= tol
  in
  let rec iterate () =
    order ();
    if converged () || !evals >= max_evals then ()
    else begin
      let c = centroid () in
      let worst = simplex.(dim) in
      let xr = combine c worst (-1.) in
      let fr = eval xr in
      if fr < fvals.(0) then begin
        (* Expansion. *)
        let xe = combine c worst (-2.) in
        let fe = eval xe in
        if fe < fr then begin
          simplex.(dim) <- xe;
          fvals.(dim) <- fe
        end
        else begin
          simplex.(dim) <- xr;
          fvals.(dim) <- fr
        end;
        iterate ()
      end
      else if fr < fvals.(dim - 1) then begin
        simplex.(dim) <- xr;
        fvals.(dim) <- fr;
        iterate ()
      end
      else begin
        (* Contraction (outside if the reflection helped at all). *)
        let xc =
          if fr < fvals.(dim) then combine c worst (-0.5) else combine c worst 0.5
        in
        let fc = eval xc in
        if fc < Float.min fr fvals.(dim) then begin
          simplex.(dim) <- xc;
          fvals.(dim) <- fc;
          iterate ()
        end
        else begin
          (* Shrink toward the best vertex. *)
          for i = 1 to dim do
            simplex.(i) <-
              project
                (Array.init dim (fun j ->
                   simplex.(0).(j) +. (0.5 *. (simplex.(i).(j) -. simplex.(0).(j)))));
            fvals.(i) <- eval simplex.(i)
          done;
          iterate ()
        end
      end
    end
  in
  iterate ();
  order ();
  { x = Array.copy simplex.(0); fval = fvals.(0); evals = !evals; converged = converged () }
