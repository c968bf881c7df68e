open Geomix_tile
module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Blas_emul = Geomix_linalg.Blas_emul
module Task = Geomix_runtime.Task
module Store = Geomix_ooc.Store

let pidx i j = (i * (i + 1) / 2) + j

(* Inverse of [pidx]: recover (row, col) from a packed lower-triangle
   index — the eviction priority is called per store key. *)
let unpack p =
  let i = int_of_float ((sqrt ((8. *. float_of_int p) +. 1.) -. 1.) /. 2.) in
  let i =
    if pidx i 0 > p then i - 1 else if pidx (i + 1) 0 <= p then i + 1 else i
  in
  (i, p - pidx i 0)

type outcome =
  | Resumed of { from_column : int; reshipped : int }
  | Restarted of { quarantined : Store.key list }

type ctx = {
  st : Store.t;
  pmap : Precision_map.t;
  comm_conversion : int -> int -> Geomix_precision.Fpformat.scalar option;
  nt : int;
  nb : int;
  n : int;
  npairs : int;
  every : int;
  cur : int ref;  (* current column — drives the farthest-next-use order *)
}

(* The matrix supplies the shape; the tile count is the precision map's,
   which both drivers have checked against the matrix or manifest. *)
let mk_ctx ?cmap ?(checkpoint_every = 1) ~store ~pmap a =
  if checkpoint_every < 1 then
    invalid_arg "Ooc_cholesky: checkpoint_every < 1";
  let nt = Precision_map.nt pmap in
  {
    st = store;
    pmap;
    (* Mp_cholesky's own decision, so the shipped operands (and hence the
       factor) are bit-identical to the in-core driver's. *)
    comm_conversion = Mp_cholesky.comm_conversion ?cmap pmap;
    nt;
    nb = Tiled.nb a;
    n = Tiled.n a;
    npairs = nt * (nt + 1) / 2;
    every = checkpoint_every;
    cur = ref 0;
  }

(* Farthest-next-use eviction order of the left-looking schedule (the
   I/O-aware static order of arXiv 2410.09819).  A key's priority is the
   distance, in columns, to its next read at the current column: stored
   input (i, j) is next read at step j; a broadcast form of tile (i, k)
   feeds steps k+1 .. i; anything never read again (the finished factor,
   consumed broadcasts) is first out the door. *)
let install_priority ctx =
  let far = max_int / 2 in
  Store.set_priority ctx.st
    (Some
       (fun key ->
         let c = !(ctx.cur) in
         if key < ctx.npairs then
           let _, j = unpack key in
           if j >= c then j - c else far
         else
           let i, k = unpack (key - ctx.npairs) in
           if i = k then (if c > k then far else k - c)
           else if c > i then far
           else max c (k + 1) - c))

(* What a consumer reads of tile (i, j)'s broadcast: the stored (storage
   precision) tile under TTC, the separately spilled transfer-format form
   under STC — so the store's disk traffic tracks the communication map
   down to FP16/FP8 records. *)
let read_ship ctx i j =
  let key =
    if ctx.comm_conversion i j = None then pidx i j else ctx.npairs + pidx i j
  in
  (Store.acquire ctx.st key, key)

let publish ctx i j m =
  Mat.round_inplace (Precision_map.storage ctx.pmap i j) m;
  match ctx.comm_conversion i j with
  | Some s -> Store.put ctx.st (ctx.npairs + pidx i j) (Mat.rounded s m)
  | None -> ()

(* One left-looking step: column [j] receives all of its trailing updates
   (each per-tile chain in the same k-ascending order the DAG serializes
   it in), then the panel factorizes.  Only column [j] is written, so the
   on-disk state between steps is always a consistent prefix. *)
let step ctx j =
  ctx.cur := j;
  let kernel_precision i j = Precision_map.get ctx.pmap i j in
  let prec kind = Task.exec_precision ~kernel_precision kind in
  let c = Store.acquire ctx.st (pidx j j) in
  for k = 0 to j - 1 do
    let mk, kk = read_ship ctx j k in
    Blas_emul.syrk_lower ~prec:(prec (Task.Syrk (j, k))) ~alpha:(-1.) mk ~beta:1. c;
    Store.release ctx.st kk
  done;
  (* Re-raise pivot failures with the global row index, as Mp_cholesky. *)
  (try Blas_emul.potrf_lower ~prec:(prec (Task.Potrf j)) c
   with Blas.Not_positive_definite p ->
     Store.release ctx.st (pidx j j);
     raise (Blas.Not_positive_definite ((j * ctx.nb) + p)));
  publish ctx j j c;
  Store.release ctx.st ~dirty:true (pidx j j);
  for i = j + 1 to ctx.nt - 1 do
    let b = Store.acquire ctx.st (pidx i j) in
    for k = 0 to j - 1 do
      let aik, k1 = read_ship ctx i k in
      let ajk, k2 = read_ship ctx j k in
      Blas_emul.gemm_nt
        ~prec:(prec (Task.Gemm (i, j, k)))
        ~alpha:(-1.) aik ajk ~beta:1. b;
      Store.release ctx.st k2;
      Store.release ctx.st k1
    done;
    let l, kl = read_ship ctx j j in
    Blas_emul.trsm_right_lower_trans ~prec:(prec (Task.Trsm (i, j))) ~l b;
    Store.release ctx.st kl;
    publish ctx i j b;
    Store.release ctx.st ~dirty:true (pidx i j)
  done

let meta_of ctx ~completed ~finalized =
  [
    ("completed", string_of_int completed);
    ("nt", string_of_int ctx.nt);
    ("nb", string_of_int ctx.nb);
    ("n", string_of_int ctx.n);
    ("finalized", if finalized then "true" else "false");
  ]

let ckpt ctx ~completed ~finalized =
  Store.checkpoint ctx.st
    ~meta:(meta_of ctx ~completed ~finalized)
    ~epoch:(Store.epoch ctx.st + 1)
    ()

let run_columns ctx ~from =
  for j = from to ctx.nt - 1 do
    step ctx j;
    if (j + 1) mod ctx.every = 0 || j = ctx.nt - 1 then
      ckpt ctx ~completed:(j + 1) ~finalized:false
  done

(* Materialize the factor into the tiled matrix, scrub the stale upper
   triangles (idempotent — a crash in this window just re-runs it from
   the completed=nt checkpoint), and commit the finalized manifest. *)
let finalize ctx a =
  ctx.cur := ctx.nt;
  for i = 0 to ctx.nt - 1 do
    for j = 0 to i do
      Tiled.set_tile a i j (Store.acquire ctx.st (pidx i j))
    done
  done;
  for k = 0 to ctx.nt - 1 do
    Mat.zero_upper (Tiled.tile a k k)
  done;
  for i = 0 to ctx.nt - 1 do
    for j = 0 to i do
      Store.release ctx.st ~dirty:(i = j) (pidx i j)
    done
  done;
  ckpt ctx ~completed:ctx.nt ~finalized:true

let factorize ?cmap ?checkpoint_every ~store ~pmap a =
  if Precision_map.nt pmap <> Tiled.nt a then
    invalid_arg "Ooc_cholesky.factorize: precision map / matrix tile mismatch";
  let ctx = mk_ctx ?cmap ?checkpoint_every ~store ~pmap a in
  install_priority ctx;
  Tiled.iter_lower a (fun ~i ~j m -> Store.put store (pidx i j) m);
  (* The epoch-1 checkpoint makes the pristine input durable: a crash at
     any later instruction recovers to a committed prefix, never to an
     empty directory. *)
  ckpt ctx ~completed:0 ~finalized:false;
  run_columns ctx ~from:0;
  finalize ctx a

let resume ?cmap ?checkpoint_every ?obs ?faults ?budget ?max_attempts
    ~dir ~init ~pmap () =
  let st, rcv = Store.recover ?obs ?faults ?budget ?max_attempts ~dir () in
  let geti key default =
    match List.assoc_opt key rcv.Store.rec_meta with
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> default)
    | None -> default
  in
  let nt = geti "nt" (Precision_map.nt pmap) in
  if nt <> Precision_map.nt pmap then
    invalid_arg "Ooc_cholesky.resume: manifest / precision map tile mismatch";
  let nb = geti "nb" 0 and n = geti "n" 0 in
  let completed = geti "completed" 0 in
  let finalized = List.assoc_opt "finalized" rcv.Store.rec_meta = Some "true" in
  let npairs = nt * (nt + 1) / 2 in
  if List.exists (fun k -> k < npairs) rcv.Store.quarantined then begin
    (* A stored record rotted: the factor prefix itself is untrusted, so
       nothing short of recomputation is sound.  Re-adopt the input and
       run from scratch; stale broadcast records are overwritten as their
       columns republish and never read before that. *)
    let a = init () in
    if Tiled.nt a <> nt then
      invalid_arg "Ooc_cholesky.resume: init () tile count mismatch";
    factorize ?cmap ?checkpoint_every ~store:st ~pmap a;
    (st, a, Restarted { quarantined = rcv.Store.quarantined })
  end
  else begin
    let a = if n > 0 && nb > 0 then Tiled.create ~n ~nb else init () in
    let ctx = mk_ctx ?cmap ?checkpoint_every ~store:st ~pmap a in
    install_priority ctx;
    (* Quarantined broadcast records are pure derivations of the verified
       stored factor: recompute them exactly as publish would. *)
    let reshipped = ref 0 in
    List.iter
      (fun key ->
        let i, k = unpack (key - npairs) in
        if k < completed then
          match ctx.comm_conversion i k with
          | Some s ->
            let m = Store.acquire st (pidx i k) in
            Store.put st key (Mat.rounded s m);
            Store.release st (pidx i k);
            incr reshipped
          | None -> ())
      rcv.Store.quarantined;
    if !reshipped > 0 then ckpt ctx ~completed ~finalized;
    if finalized && completed >= nt then begin
      (* Nothing left to compute: hand back the committed factor. *)
      for i = 0 to nt - 1 do
        for j = 0 to i do
          Tiled.set_tile a i j (Store.acquire st (pidx i j))
        done
      done;
      for i = 0 to nt - 1 do
        for j = 0 to i do
          Store.release st (pidx i j)
        done
      done
    end
    else begin
      run_columns ctx ~from:completed;
      finalize ctx a
    end;
    (st, a, Resumed { from_column = completed; reshipped = !reshipped })
  end
