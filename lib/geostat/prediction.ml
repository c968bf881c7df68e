module Mp_cholesky = Geomix_core.Mp_cholesky

type t = { mean : float array; variance : float array }

let cross_distance a i b j =
  let ca = Locations.coord a i and cb = Locations.coord b j in
  let acc = ref 0. in
  for d = 0 to Array.length ca - 1 do
    let x = ca.(d) -. cb.(d) in
    acc := !acc +. (x *. x)
  done;
  sqrt !acc

let predict ~cov ~factor:l ~obs_locs ~z ~new_locs =
  assert (Locations.dim obs_locs = Locations.dim new_locs);
  let n = Locations.count obs_locs and m = Locations.count new_locs in
  assert (Array.length z = n && Geomix_tile.Tiled.n l = n);
  (* α = Σ⁻¹z through the factor. *)
  let alpha = Mp_cholesky.solve_lower_trans l (Mp_cholesky.solve_lower l z) in
  let mean = Array.make m 0. and variance = Array.make m 0. in
  let c = Covariance.eval cov in
  (* C(0) is exactly σ² in every family: [element]'s diagonal. *)
  let c0 = c 0. +. cov.Covariance.nugget in
  for j = 0 to m - 1 do
    let k = Array.init n (fun i -> c (cross_distance obs_locs i new_locs j)) in
    let mu = ref 0. in
    Array.iteri (fun i ki -> mu := !mu +. (ki *. alpha.(i))) k;
    mean.(j) <- !mu;
    (* σ*² = C(0) − k*ᵀΣ⁻¹k* via one forward solve. *)
    let w = Mp_cholesky.solve_lower l k in
    let s = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. w in
    variance.(j) <- Float.max 0. (c0 -. s)
  done;
  { mean; variance }

let mse ~predicted ~truth =
  assert (Array.length predicted = Array.length truth);
  let acc = ref 0. in
  Array.iteri
    (fun i p ->
      let d = p -. truth.(i) in
      acc := !acc +. (d *. d))
    predicted;
  !acc /. float_of_int (Array.length predicted)
