(* geomix gemm: emulated GEMM accuracy and modelled performance. *)

open Cmdliner
open Cli
module Gpu = Geomix_gpusim.Gpu_specs

let run prec n seed =
  let rng = Rng.create ~seed in
  let err = Geomix_linalg.Blas_emul.gemm_accuracy ~prec ~n ~rng in
  Printf.printf "emulated %s GEMM, n=%d: relative error vs FP64 = %.3e\n" (Fp.name prec) n err;
  List.iter
    (fun gen ->
      let gpu = Gpu.of_generation gen in
      if Gpu.supports gpu prec then begin
        let t = Geomix_gpusim.Exec_model.gemm_time gpu ~prec ~n:2048 () in
        Printf.printf "modelled 2048-GEMM on %-14s %.3f ms (%.1f Tflop/s)\n" gpu.Gpu.name
          (1e3 *. t)
          (Geomix_precision.Flops.gemm_full ~m:2048 ~n:2048 ~k:2048 /. t /. 1e12)
      end)
    [ Gpu.V100; Gpu.A100; Gpu.H100 ]

let cmd =
  let prec_conv =
    Arg.enum (List.map (fun p -> (String.lowercase_ascii (Fp.name p), p)) Fp.all)
  in
  let n_arg =
    Arg.(value & opt positive_int 128 & info [ "size" ] ~doc:"Matrix order for the accuracy probe.")
  in
  let prec_arg = Arg.(value & opt prec_conv Fp.Fp16 & info [ "prec" ] ~doc:"Precision.") in
  Cmd.v
    (Cmd.info "gemm" ~doc:"Probe emulated GEMM accuracy and modelled performance")
    Term.(const run $ prec_arg $ n_arg $ seed_arg)
