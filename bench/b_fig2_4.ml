(* Figs 2 and 4: the tile-level kernel-precision map, the storage map it
   induces, and Algorithm 2's communication-precision map with its STC/TTC
   classification, on a small synthetic example. *)

open Common

let run (_ : scale) =
  section "fig2_4" "Precision maps: kernel execution, storage, communication (STC/TTC)";
  let n = 16 * 256 and small_nb = 256 in
  let element i j = exp (-4.0e-3 *. float_of_int (abs (i - j))) in
  let pmap =
    Pm.of_element_fn ~u_req:1e-4 ~n ~nb:small_nb (fun i j ->
      if i = j then 1. +. element i j else element i j)
  in
  Printf.printf "\n  Fig 2a — kernel precision per tile:\n%s" (Pm.render pmap);
  Printf.printf "\n  Fig 2b — storage precision per tile (FP16-class tiles stored FP32):\n";
  let nt = Pm.nt pmap in
  for i = 0 to nt - 1 do
    Printf.printf "  ";
    for j = 0 to nt - 1 do
      if j > i then print_string ". "
      else
        print_string
          (match Pm.storage pmap i j with
          | Fp.S_fp64 -> "6 "
          | Fp.S_fp32 -> "3 "
          | _ -> "? ")
    done;
    print_newline ()
  done;
  let cmap = Cm.compute pmap in
  Printf.printf "\n  Fig 4b — communication precision and STC tiles:\n%s" (Cm.render cmap);
  paper "diagonal FP64; banded FP32/FP16_32/FP16 off-diagonal; STC on tiles whose successors all consume less";
  (* The two extreme configurations of Section VII-D. *)
  let extreme = Pm.two_level ~nt:8 ~off_diag:Fp.Fp16 in
  let cm = Cm.compute extreme in
  Printf.printf "\n  FP64/FP16 extreme: %.0f%% of broadcasting tiles use STC (paper: all)\n"
    (100. *. Cm.stc_fraction cm)
