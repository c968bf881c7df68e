module Fpformat = Geomix_precision.Fpformat
module Task = Geomix_runtime.Task

type generation = V100 | A100 | H100

type t = {
  generation : generation;
  name : string;
  mem_bytes : float;
  mem_bw : float;
  tdp : float;
  idle_power : float;
}

let v100 =
  {
    generation = V100;
    name = "V100 (NVLink)";
    mem_bytes = 16e9;
    mem_bw = 900e9;
    tdp = 300.;
    idle_power = 40.;
  }

let a100 =
  {
    generation = A100;
    name = "A100 (SXM)";
    mem_bytes = 80e9;
    mem_bw = 2039e9;
    tdp = 400.;
    idle_power = 50.;
  }

let h100 =
  {
    generation = H100;
    name = "H100 (PCIe)";
    mem_bytes = 80e9;
    mem_bw = 2000e9;
    tdp = 350.;
    idle_power = 50.;
  }

let of_generation = function V100 -> v100 | A100 -> a100 | H100 -> h100

(* Table I of the paper, in flop/s.  FP16_32 runs on the FP16 tensor units. *)
let peak_flops t prec =
  let tf = 1e12 in
  match (t.generation, prec) with
  | V100, Fpformat.Fp64 -> 7.8 *. tf
  | V100, Fpformat.Fp32 -> 15.7 *. tf
  | V100, Fpformat.Tf32 -> 15.7 *. tf (* no TF32 units: dispatched as FP32 *)
  | V100, (Fpformat.Fp16 | Fpformat.Fp16_32) -> 125. *. tf
  | V100, Fpformat.Bf16_32 -> 125. *. tf (* no BF16 units: FP16 path *)
  | A100, Fpformat.Fp64 -> 19.5 *. tf (* tensor cores *)
  | A100, Fpformat.Fp32 -> 19.5 *. tf
  | A100, Fpformat.Tf32 -> 156. *. tf
  | A100, (Fpformat.Fp16 | Fpformat.Fp16_32 | Fpformat.Bf16_32) -> 312. *. tf
  | H100, Fpformat.Fp64 -> 51.2 *. tf (* tensor cores *)
  | H100, Fpformat.Fp32 -> 51.2 *. tf
  | H100, Fpformat.Tf32 -> 378. *. tf
  | H100, (Fpformat.Fp16 | Fpformat.Fp16_32 | Fpformat.Bf16_32) -> 756. *. tf

let supports t prec =
  match (t.generation, prec) with
  | V100, (Fpformat.Tf32 | Fpformat.Bf16_32) -> false
  | _ -> true

let fp64_uses_tensor_cores t =
  match t.generation with V100 -> false | A100 | H100 -> true

(* Sustained large-GEMM fraction of peak (Fig 1 calibration; the PCIe H100
   sustains visibly less of its datasheet peak than V100/A100 — Section
   VII-D attributes its lower end-to-end efficiency to exactly this). *)
let sustained_gemm t prec =
  match (t.generation, prec) with
  | V100, Fpformat.Fp64 -> 0.95
  | V100, (Fpformat.Fp32 | Fpformat.Tf32) -> 0.93
  | V100, _ -> 0.86
  | A100, Fpformat.Fp64 -> 0.95
  | A100, Fpformat.Fp32 -> 0.93
  | A100, _ -> 0.88
  | H100, (Fpformat.Fp64 | Fpformat.Fp32) -> 0.76
  | H100, _ -> 0.74

(* End-to-end runs sustain less than the resident GEMM benchmark: kernel
   launch, stream synchronisation and runtime overheads.  Calibrated so the
   simulated FP64 Cholesky efficiency lands where Section VII-D reports
   (84.2% V100, >85% A100, ~62% H100). *)
let runtime_overhead t =
  match t.generation with V100 | A100 -> 0.92 | H100 -> 0.82

(* The non-GEMM tile kernels sustain less of peak: TRSM/SYRK are rank-nb
   updates with worse locality, POTRF is latency-bound on its O(nb³/3)
   dependent flops. *)
let kernel_efficiency t kind prec =
  let g = sustained_gemm t prec *. runtime_overhead t in
  match (kind : Task.kind) with
  | Task.Gemm _ -> g
  | Task.Syrk _ -> 0.85 *. g
  | Task.Trsm _ -> 0.80 *. g
  | Task.Potrf _ -> 0.25 *. g

(* Sustained bandwidth of datatype-conversion kernels: about half of HBM on
   V100/A100; Hopper's TMA/async bulk copies convert at full stream rate. *)
let conversion_bw t =
  match t.generation with V100 | A100 -> 0.5 *. t.mem_bw | H100 -> t.mem_bw

let busy_power t prec =
  let frac =
    match prec with
    | Fpformat.Fp64 -> 0.92
    | Fpformat.Fp32 -> 0.84
    | Fpformat.Tf32 -> 0.90
    | Fpformat.Fp16_32 | Fpformat.Bf16_32 -> 0.95
    | Fpformat.Fp16 -> 0.97
  in
  t.idle_power +. (frac *. (t.tdp -. t.idle_power))
