(* Schedule-explorer smoke pass, the second leg of [make check]: a numeric
   tile Cholesky expressed through DTD insertion, replayed under 10 seeded
   interleavings of the ready set.  Every schedule must produce a correct
   factorization; any failure prints the offending seed (rebuild the exact
   interleaving with [Explore.random_schedule ~seed]) and exits nonzero. *)

module Explore = Geomix_verify.Explore
module Dtd = Geomix_verify.Dtd
module Mat = Geomix_linalg.Mat
module Check = Geomix_linalg.Check
module Tiled = Geomix_tile.Tiled

let () =
  let n = 64 and nb = 16 and seeds = 10 in
  let dense =
    Mat.init ~rows:n ~cols:n (fun i j ->
      (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))
  in
  let failures = ref 0 in
  for seed = 0 to seeds - 1 do
    let a = Tiled.of_dense ~nb dense in
    let g = Dtd.cholesky ~nt:(Tiled.nt a) (Dtd.tile_kernel a) in
    ignore (Explore.run_random (Explore.of_dtd g) ~seed ~execute:(Dtd.execute_task g));
    Tiled.iter_lower a (fun ~i ~j tile -> if i = j then Mat.zero_upper tile);
    let l = Tiled.to_dense a in
    Mat.zero_upper l;
    let res = Check.cholesky_residual ~a:dense ~l in
    if res > 1e-13 then begin
      incr failures;
      Printf.printf "FAIL seed %2d: residual %.3e\n%!" seed res
    end
    else Printf.printf "ok   seed %2d: residual %.3e\n%!" seed res
  done;
  if !failures = 0 then
    Printf.printf "explorer pass: %d/%d seeded schedules correct\n%!" seeds seeds
  else begin
    Printf.printf "explorer pass: %d/%d schedules FAILED\n%!" !failures seeds;
    exit 1
  end
