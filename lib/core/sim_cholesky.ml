module Fpformat = Geomix_precision.Fpformat
module Flops = Geomix_precision.Flops
module Layout = Geomix_tile.Layout
module Task = Geomix_runtime.Task
module Cholesky_dag = Geomix_runtime.Cholesky_dag
module Trace = Geomix_runtime.Trace
module Gpu_specs = Geomix_gpusim.Gpu_specs
module Machine = Geomix_gpusim.Machine
module Device = Geomix_gpusim.Device
module Exec_model = Geomix_gpusim.Exec_model
module Energy = Geomix_gpusim.Energy
module Heap = Geomix_util.Heap

(* Usable fraction of each device's memory. *)
let cache_fraction = 0.88

type report = {
  machine_name : string;
  n : int;
  nb : int;
  ngpus : int;
  makespan : float;
  total_flops : float;
  tflops : float;
  bytes_h2d : float;
  bytes_d2d : float;
  bytes_nic : float;
  conversions : int;
  utilisation : float;
  energy : Energy.report;
  trace : Trace.t option;
}

let pidx i j = (i * (i + 1) / 2) + j

(* Scheduling priority: earlier iterations first, then the critical
   POTRF → TRSM panel ahead of the trailing updates. *)
let priority kind =
  let k, cls, a =
    match (kind : Task.kind) with
    | Task.Potrf k -> (k, 0, 0)
    | Task.Trsm (m, k) -> (k, 1, m)
    | Task.Syrk (m, k) -> (k, 2, m)
    | Task.Gemm (m, n, k) -> (k, 3, (m * 4096) + n)
  in
  (((k * 4) + cls) * (4096 * 4096)) + a

let run ?(collect_trace = false) ?cmap ~machine ~pmap ~nb () =
  let nt = Precision_map.nt pmap in
  let n = nt * nb in
  let dag = Cholesky_dag.create ~nt in
  let cmap = match cmap with Some cm -> cm | None -> Comm_map.compute pmap in
  if Comm_map.nt cmap <> nt then
    invalid_arg "Sim_cholesky.run: comm map / precision map tile mismatch";
  let ngpus = Machine.total_gpus machine in
  let gpu = machine.Machine.gpu in
  let devices =
    Array.init ngpus (fun _ ->
      Device.create ~gpu ~capacity_bytes:(cache_fraction *. gpu.Gpu_specs.mem_bytes))
  in
  (* Full-duplex NICs: independent injection and reception timelines. *)
  let nic_out_free = Array.make machine.Machine.nodes 0. in
  let nic_in_free = Array.make machine.Machine.nodes 0. in
  let grid = Layout.squarest_grid ngpus in
  let owner i j = Layout.owner grid ~i ~j in
  let kernel_precision i j = Precision_map.get pmap i j in
  let ntile = nt * (nt + 1) / 2 in
  (* Per-tile simulation state. *)
  let storage = Array.init ntile (fun _ -> Fpformat.S_fp64) in
  for i = 0 to nt - 1 do
    for j = 0 to i do
      storage.(pidx i j) <- Precision_map.storage pmap i j
    done
  done;
  let materialised = Array.make ntile false in
  (* Simulated time at which the final (broadcastable) version of a tile
     exists: PaRSEC forwards data eagerly, so transfers may start here
     rather than when the consumer becomes ready. *)
  let produced_at = Array.make ntile infinity in
  (* Accounting. *)
  let bytes_h2d = ref 0. and bytes_d2d = ref 0. and bytes_nic = ref 0. in
  let conversions = ref 0 in
  let busy : (Fpformat.t, float ref) Hashtbl.t = Hashtbl.create 8 in
  let add_busy prec dur =
    match Hashtbl.find_opt busy prec with
    | Some r -> r := !r +. dur
    | None -> Hashtbl.add busy prec (ref dur)
  in
  let trace = if collect_trace then Some (Trace.create ()) else None in
  let tile_bytes scalar = Flops.tile_bytes ~nb ~scalar in
  (* Transfers.  Each occupies the copy streams of the devices involved (and
     the node NICs when crossing nodes); they overlap compute. *)
  let h2d dev ~bytes ~earliest =
    bytes_h2d := !bytes_h2d +. bytes;
    let dur =
      Exec_model.transfer_time ~bw:machine.Machine.h2d_bw
        ~latency:machine.Machine.h2d_latency ~bytes
    in
    Device.busy_link dev ~start:earliest ~dur
  in
  let d2d src dst ~bytes ~earliest =
    let start = Float.max earliest (Float.max (Device.link_free src) (Device.link_free dst)) in
    bytes_d2d := !bytes_d2d +. bytes;
    let dur =
      Exec_model.transfer_time ~bw:machine.Machine.d2d_bw
        ~latency:machine.Machine.d2d_latency ~bytes
    in
    let fin = Device.busy_link src ~start ~dur in
    ignore (Device.busy_link dst ~start ~dur);
    fin
  in
  (* Inter-node messages are host-staged RDMA: they occupy the two NICs for
     the wire time, and the destination GPU link only for the final
     host-to-device hop. *)
  let internode src src_node dst dst_node ~bytes ~earliest =
    ignore src;
    let start =
      List.fold_left Float.max earliest
        [ nic_out_free.(src_node); nic_in_free.(dst_node) ]
    in
    bytes_nic := !bytes_nic +. bytes;
    let dur =
      Exec_model.transfer_time ~bw:machine.Machine.nic_bw
        ~latency:machine.Machine.nic_latency ~bytes
    in
    let fin = start +. dur in
    nic_out_free.(src_node) <- fin;
    nic_in_free.(dst_node) <- fin;
    let h2d_dur =
      Exec_model.transfer_time ~bw:machine.Machine.h2d_bw
        ~latency:machine.Machine.h2d_latency ~bytes
    in
    Device.busy_link dst ~start:fin ~dur:h2d_dur
  in
  let write_back dev ~bytes = ignore (h2d dev ~bytes ~earliest:0.) in
  (* Devices currently holding a copy of each tile (kept in sync with the
     LRU caches) — the pool of candidate broadcast sources. *)
  let holders : int list array = Array.make ntile [] in
  let handle_evictions d_idx victims =
    List.iter
      (fun (key, bytes, dirty) ->
        holders.(key) <- List.filter (fun d -> d <> d_idx) holders.(key);
        if dirty then write_back devices.(d_idx) ~bytes)
      victims
  in
  let record_holder d_idx key =
    if not (List.mem d_idx holders.(key)) then holders.(key) <- d_idx :: holders.(key)
  in
  (* Broadcast source selection, PaRSEC-style: a same-node peer that already
     received the tile forwards it over NVLink, and among candidate sources
     the least-loaded link is used — consumers fan out across earlier
     receivers exactly as a broadcast tree does, instead of serialising on
     the producer. Only the first consumer on a node pays the inter-node
     hop. *)
  let find_source ~d_idx ~d_node key =
    let same_node, remote =
      List.partition (fun h -> Machine.node_of_gpu machine h = d_node) holders.(key)
    in
    let pick ~load candidates =
      List.fold_left
        (fun best h ->
          if h = d_idx || not (Device.mem devices.(h) ~key) then best
          else begin
            match best with
            | Some b when load b <= load h -> best
            | _ -> Some h
          end)
        None candidates
    in
    (* Intra-node forwards queue on the peer's NVLink stream; inter-node
       pulls queue on the source node's NIC injection. *)
    match pick ~load:(fun h -> Device.link_free devices.(h)) same_node with
    | Some h -> Some (h, true)
    | None -> (
      match
        pick ~load:(fun h -> nic_out_free.(Machine.node_of_gpu machine h)) remote
      with
      | Some h -> Some (h, false)
      | None -> None)
  in
  (* Per-task bookkeeping. *)
  let num_tasks = Cholesky_dag.num_tasks dag in
  let remaining = Cholesky_dag.in_degree dag in
  let ready_time = Array.make num_tasks 0. in
  (* Among tasks becoming ready within the same scheduling epoch, pick the
     most critical (panel-first, iteration order) — the priority policy
     PaRSEC applies to tile Cholesky; the epoch quantisation keeps the
     simulated link timelines causally reasonable. *)
  let epoch =
    4. *. Exec_model.kernel_time gpu (Task.Gemm (2, 1, 0)) ~prec:Fpformat.Fp64 ~nb
  in
  let cmp (ta, pa, _) (tb, pb, _) =
    let ea = int_of_float (ta /. epoch) and eb = int_of_float (tb /. epoch) in
    match Int.compare ea eb with
    | 0 -> ( match Int.compare pa pb with 0 -> Float.compare ta tb | c -> c)
    | c -> c
  in
  let heap : (float * int * int) Heap.t = Heap.create ~cmp in
  Array.iteri
    (fun id d -> if d = 0 then Heap.push heap (0., priority (Cholesky_dag.kind_of dag id), id))
    remaining;
  let makespan = ref 0. in
  let processed = ref 0 in
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (_, _, id) ->
      let kind = Cholesky_dag.kind_of dag id in
      let wi, wj = Task.write_tile kind in
      let widx = pidx wi wj in
      let d_idx = owner wi wj in
      let dev = devices.(d_idx) in
      let t0 = ready_time.(id) in
      let data_ready = ref t0 in
      (* Write tile: resident, regenerated, or refetched. *)
      if not (Device.resident dev ~key:widx) then begin
        let bytes = tile_bytes storage.(widx) in
        if materialised.(widx) then
          data_ready := Float.max !data_ready (h2d dev ~bytes ~earliest:t0)
        else materialised.(widx) <- true;
        handle_evictions d_idx (Device.insert dev ~key:widx ~bytes ~dirty:true);
        record_holder d_idx widx
      end;
      (* Read tiles. *)
      let conv_time = ref 0. in
      let exec_prec = Task.exec_precision ~kernel_precision kind in
      let needed = Fpformat.input_scalar exec_prec in
      List.iter
        (fun (ri, rj) ->
          let ridx = pidx ri rj in
          (* The DAG reads only finalised broadcast tiles, which exist in
             the form the communication map ships. *)
          let avail = Comm_map.shipped cmap pmap ri rj in
          if not (Device.resident dev ~key:ridx) then begin
            let bytes = tile_bytes avail in
            let d_node = Machine.node_of_gpu machine d_idx in
            (* Eager forwarding: the transfer may start as soon as the
               producer finished, overlapping the consumer's other
               predecessors. *)
            let earliest = Float.min produced_at.(ridx) t0 in
            let fin =
              match find_source ~d_idx ~d_node ridx with
              | Some (h, true) -> d2d devices.(h) dev ~bytes ~earliest
              | Some (h, false) ->
                internode devices.(h)
                  (Machine.node_of_gpu machine h)
                  dev d_node ~bytes ~earliest
              | None -> h2d dev ~bytes ~earliest
            in
            data_ready := Float.max !data_ready fin;
            handle_evictions d_idx (Device.insert dev ~key:ridx ~bytes ~dirty:false);
            record_holder d_idx ridx
          end;
          if avail <> needed then begin
            incr conversions;
            conv_time :=
              !conv_time +. Exec_model.conversion_time gpu ~nb ~from:avail ~into:needed
          end)
        (Task.read_tiles kind);
      (* Producer-side STC conversion: once, when the broadcast tile is
         finalised below at a lower communication precision. *)
      let finalises =
        match kind with Task.Potrf _ | Task.Trsm _ -> true | Task.Syrk _ | Task.Gemm _ -> false
      in
      let stc_conv =
        if finalises && Comm_map.strategy cmap wi wj = Comm_map.Stc then begin
          incr conversions;
          Exec_model.conversion_time gpu ~nb ~from:storage.(widx)
            ~into:(Comm_map.comm_scalar cmap wi wj)
        end
        else 0.
      in
      let dur = Exec_model.kernel_time gpu kind ~prec:exec_prec ~nb +. !conv_time +. stc_conv in
      let start = Float.max (Device.compute_free dev) !data_ready in
      let finish = Device.busy_compute dev ~start ~dur in
      add_busy exec_prec dur;
      (match trace with
      | Some tr ->
        Trace.add tr
          {
            Trace.label = Task.name kind;
            resource = d_idx;
            start;
            stop = finish;
            tag = Fpformat.name exec_prec;
          }
      | None -> ());
      makespan := Float.max !makespan finish;
      if finalises then produced_at.(widx) <- finish;
      incr processed;
      List.iter
        (fun s ->
          ready_time.(s) <- Float.max ready_time.(s) finish;
          remaining.(s) <- remaining.(s) - 1;
          if remaining.(s) = 0 then
            Heap.push heap (ready_time.(s), priority (Cholesky_dag.kind_of dag s), s))
        (Cholesky_dag.successors dag id);
      loop ()
  in
  loop ();
  assert (!processed = num_tasks);
  let total_flops = Flops.cholesky_tiled ~nt ~nb in
  let busy_list = Hashtbl.fold (fun p r acc -> (p, !r) :: acc) busy [] in
  let total_busy = List.fold_left (fun acc (_, s) -> acc +. s) 0. busy_list in
  let energy =
    Energy.of_busy gpu ~makespan:!makespan ~ngpus ~flops:total_flops ~busy:busy_list
  in
  {
    machine_name = machine.Machine.name;
    n;
    nb;
    ngpus;
    makespan = !makespan;
    total_flops;
    tflops = (if !makespan > 0. then total_flops /. !makespan /. 1e12 else 0.);
    bytes_h2d = !bytes_h2d;
    bytes_d2d = !bytes_d2d;
    bytes_nic = !bytes_nic;
    conversions = !conversions;
    utilisation = (if !makespan > 0. then total_busy /. (!makespan *. float_of_int ngpus) else 0.);
    energy;
    trace;
  }

let efficiency r ~peak_flops_per_gpu =
  r.total_flops /. r.makespan /. (peak_flops_per_gpu *. float_of_int r.ngpus)
