(** Analytic models of the three NVIDIA GPU generations the paper evaluates
    (Table I), plus the measured-bandwidth and power constants the cost
    model needs.

    Peak numbers are the paper's Table I; sustained-GEMM fractions are
    calibrated so the modelled GEMM benchmark lands where Fig 1 reports
    (near-peak on V100/A100, "marginally lower" on the PCIe H100). *)

module Fpformat = Geomix_precision.Fpformat

type generation = V100 | A100 | H100

type t = {
  generation : generation;
  name : string;
  mem_bytes : float;      (** device HBM capacity *)
  mem_bw : float;         (** device memory bandwidth, B/s (datatype
                              conversions are memory-bound) *)
  tdp : float;            (** max thermal design power, W *)
  idle_power : float;     (** W *)
}

val v100 : t
(** Tesla V100 (NVLink, 16 GB) as deployed on Summit. *)

val a100 : t
(** A100-SXM4-80GB as deployed on Guyot. *)

val h100 : t
(** H100 PCIe (80 GB) as deployed on Haxane. *)

val of_generation : generation -> t

val peak_flops : t -> Fpformat.t -> float
(** Theoretical peak (flop/s) of a kernel of the given precision: FP64
    tensor cores on A100/H100, FP16 tensor for FP16/FP16_32, etc.
    Precisions the part lacks (TF32/BF16 on V100) fall back to the nearest
    supported unit, matching how a library would dispatch. *)

val sustained_gemm : t -> Fpformat.t -> float
(** Fraction of peak a large resident GEMM sustains (Fig 1 calibration). *)

val kernel_efficiency : t -> Geomix_runtime.Task.kind -> Fpformat.t -> float
(** Fraction of peak sustained by each tile kernel inside a full run: GEMM
    at {!sustained_gemm} times an end-to-end derating for launch,
    synchronisation and runtime costs; TRSM/SYRK somewhat lower; POTRF
    latency-bound. *)

val conversion_bw : t -> float
(** Sustained bandwidth (B/s) of datatype-conversion kernels. *)

val busy_power : t -> Fpformat.t -> float
(** Average power draw (W) while executing kernels of the given precision;
    tensor-heavy kernels run closest to TDP. *)

val supports : t -> Fpformat.t -> bool
(** Whether the part has native units for the precision (the "-" entries of
    Table I: no TF32/BF16/FP64-tensor on V100). *)

val fp64_uses_tensor_cores : t -> bool
(** True on A100/H100 — which is why FP64 and FP32 share a peak there and
    why the mixed approach saves less energy on those parts (Section
    VII-E). *)
