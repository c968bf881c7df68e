let mean xs =
  assert (Array.length xs > 0);
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    acc /. float_of_int (n - 1)
  end

let min_max xs =
  assert (Array.length xs > 0);
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let quantile xs p =
  assert (Array.length xs > 0);
  assert (p >= 0. && p <= 1.);
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = h -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median xs = quantile xs 0.5

type five_number = { low : float; q1 : float; med : float; q3 : float; high : float }

let five_number xs =
  let low, high = min_max xs in
  { low; q1 = quantile xs 0.25; med = median xs; q3 = quantile xs 0.75; high }

let pp_five_number ppf f =
  Format.fprintf ppf "%.4g | %.4g [%.4g] %.4g | %.4g" f.low f.q1 f.med f.q3 f.high

let histogram ~bins xs =
  assert (bins > 0);
  let lo, hi = min_max xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = Stdlib.min (Stdlib.max b 0) (bins - 1) in
      counts.(b) <- counts.(b) + 1)
    xs;
  Array.mapi
    (fun i c ->
      let blo = lo +. (float_of_int i *. width) in
      (blo, blo +. width, c))
    counts
