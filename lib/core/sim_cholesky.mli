(** Discrete-event simulation of the mixed-precision tile Cholesky on a
    modelled GPU machine — the engine behind every performance, data-motion
    and energy figure of the reproduction (Figs 8–12).

    The simulator executes the task DAG of Algorithm 1 under greedy
    owner-computes list scheduling (2-D block-cyclic tile ownership over
    the flattened GPUs), with:

    - per-GPU serialised compute and copy streams (transfers overlap
      computation, as on the real runtime);
    - per-GPU LRU residency over the device memory, with dirty write-backs
      — the source of the host↔device traffic that dominates the
      memory-pressured single-GPU runs of Fig 8;
    - broadcast transfers at the precision the communication map
      dictates: storage precision under TTC, the Algorithm 2 communication
      precision under STC (converted once at the producer);
    - per-consumer datatype-conversion charges whenever the available form
      differs from the kernel's input format (TTC's repeated conversions
      vs STC's single one — Section VI);
    - inter-node transfers through per-node NIC timelines;
    - energy integration at per-precision busy powers. *)

module Machine = Geomix_gpusim.Machine
module Energy = Geomix_gpusim.Energy
module Trace = Geomix_runtime.Trace

type report = {
  machine_name : string;
  n : int;
  nb : int;
  ngpus : int;
  makespan : float;          (** seconds *)
  total_flops : float;       (** algorithmic flop count of the factorization *)
  tflops : float;            (** total_flops / makespan / 1e12 *)
  bytes_h2d : float;         (** host↔device traffic (fetches + write-backs) *)
  bytes_d2d : float;         (** intra-node peer traffic *)
  bytes_nic : float;         (** inter-node traffic *)
  conversions : int;         (** datatype-conversion kernels executed *)
  utilisation : float;       (** aggregate busy / (makespan · ngpus) *)
  energy : Energy.report;
  trace : Trace.t option;
}

val run :
  ?collect_trace:bool ->
  ?cmap:Comm_map.t ->
  machine:Machine.t ->
  pmap:Precision_map.t ->
  nb:int ->
  unit ->
  report
(** Simulate the factorization of an [nt·nb] matrix whose tile precisions
    are given by [pmap] on [machine], with 88% of each device's memory
    usable as tile cache.  [?cmap] is the conversion strategy: the
    [Comm_map.compute pmap] default is the automated conversion (STC
    wherever Algorithm 2 allows), {!Comm_map.ttc} the always-TTC baseline
    of refs [18]/[38], and a caller-built map such as the autotuner's FP8
    overrides ({!Comm_map.override}) is simulated as given; its tile count
    must match [pmap]'s.  [?collect_trace] (default false) keeps the
    per-task events for occupancy and power plots — large runs have
    millions of tasks. *)

val efficiency : report -> peak_flops_per_gpu:float -> float
(** Fraction of the aggregate theoretical peak achieved. *)
