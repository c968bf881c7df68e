module Rng = Geomix_util.Rng
module Mat = Geomix_linalg.Mat
module Tiled = Geomix_tile.Tiled
module Mp_cholesky = Geomix_core.Mp_cholesky
module Precision_map = Geomix_core.Precision_map

let nb = 64

let factor cov locs =
  let a = Covariance.build_tiled cov locs ~nb in
  Mp_cholesky.factorize
    ~pmap:(Precision_map.uniform ~nt:(Tiled.nt a) Geomix_precision.Fpformat.Fp64)
    a;
  a

let draw rng l =
  let n = Tiled.n l and nt = Tiled.nt l and nb = Tiled.nb l in
  let e = Rng.gaussian_vector rng n in
  let z = Array.make n 0. in
  (* z = L·e in the dense column order — column j ascending, rows i ≥ j —
     so every z_i sums its terms in the same order at any tile size. *)
  for tj = 0 to nt - 1 do
    for jj = 0 to Tiled.tile_rows l tj - 1 do
      let ej = e.((tj * nb) + jj) in
      for ti = tj to nt - 1 do
        let t = Tiled.tile l ti tj in
        let buf = Mat.data t and rows = Mat.rows t and ri = ti * nb in
        for ii = (if ti = tj then jj else 0) to rows - 1 do
          let lij = Bigarray.Array1.unsafe_get buf (ii + (jj * rows)) in
          z.(ri + ii) <- z.(ri + ii) +. (lij *. ej)
        done
      done
    done
  done;
  z

let synthesize ~rng ~cov locs = draw rng (factor cov locs)

let synthesize_many ~rng ~cov ~replicas locs =
  assert (replicas > 0);
  let l = factor cov locs in
  Array.init replicas (fun _ -> draw rng l)
