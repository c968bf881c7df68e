module Fpformat = Geomix_precision.Fpformat

type strategy = Stc | Ttc

type t = {
  nt : int;
  comm : Fpformat.scalar array; (* packed lower triangle *)
  strat : strategy array;
}

let pidx i j = (i * (i + 1) / 2) + j

let nt t = t.nt

let comm_scalar t i j =
  assert (i >= j && j >= 0 && i < t.nt);
  t.comm.(pidx i j)

let strategy t i j =
  assert (i >= j && j >= 0 && i < t.nt);
  t.strat.(pidx i j)

(* Input format consumed by the GEMM kernel running on a tile of the given
   kernel precision. *)
let gemm_input_scalar pmap m n = Fpformat.input_scalar (Precision_map.get pmap m n)

(* Input format consumed by TRSM(m,k), which never executes below FP32. *)
let trsm_input_scalar pmap m k =
  match Precision_map.get pmap m k with
  | Fpformat.Fp64 -> Fpformat.S_fp64
  | _ -> Fpformat.S_fp32

let compute pmap =
  let n = Precision_map.nt pmap in
  let size = n * (n + 1) / 2 in
  let comm = Array.make size Fpformat.S_fp64 in
  let strat = Array.make size Ttc in
  let finish idx ~storage c =
    (* Cap at the storage format: data cannot ship above the precision it
       exists in; STC iff strictly below it. *)
    if Fpformat.scalar_rank c < Fpformat.scalar_rank storage then begin
      comm.(idx) <- c;
      strat.(idx) <- Stc
    end
    else begin
      comm.(idx) <- storage;
      strat.(idx) <- Ttc
    end
  in
  (* Diagonal tiles (k,k): POTRF(k) broadcasts to the TRSMs of column k. *)
  for k = 0 to n - 1 do
    let storage = Precision_map.storage pmap k k in
    if k = n - 1 then begin
      (* No successors: nothing ever ships. *)
      comm.(pidx k k) <- storage;
      strat.(pidx k k) <- Ttc
    end
    else begin
      let c = ref Fpformat.S_fp32 in
      for m = k + 1 to n - 1 do
        c := Fpformat.higher_scalar !c (trsm_input_scalar pmap m k)
      done;
      finish (pidx k k) ~storage !c
    end
  done;
  (* Off-diagonal tiles (m,k): TRSM(m,k) broadcasts to GEMMs of row m and
     column m (and to SYRK(m,k), which consumes whatever ships).  The
     broadcast floor is the tile's own input significance level: a tile the
     norm rule classified as FP16-class carries FP16-worth of information,
     so shipping it at FP16 to an FP64 SYRK loses nothing the rule did not
     already discard — this is why the paper can accept "the recipient
     might still require conversion". *)
  for k = 0 to n - 2 do
    for m = k + 1 to n - 1 do
      let storage = Precision_map.storage pmap m k in
      let c = ref (Fpformat.input_scalar (Precision_map.get pmap m k)) in
      let capped = ref false in
      (* Row broadcast: GEMM(m,n,k) for k < n < m. *)
      let nn = ref (k + 1) in
      while (not !capped) && !nn < m do
        c := Fpformat.higher_scalar !c (gemm_input_scalar pmap m !nn);
        if Fpformat.scalar_rank !c >= Fpformat.scalar_rank storage then capped := true;
        incr nn
      done;
      (* Column broadcast: GEMM(m',m,k) for m < m' < NT. *)
      let mm = ref (m + 1) in
      while (not !capped) && !mm < n do
        c := Fpformat.higher_scalar !c (gemm_input_scalar pmap !mm m);
        if Fpformat.scalar_rank !c >= Fpformat.scalar_rank storage then capped := true;
        incr mm
      done;
      finish (pidx m k) ~storage !c
    done
  done;
  { nt = n; comm; strat }

(* The always-TTC baseline of refs [18]/[38] as a map: every broadcast
   ships its storage format and nothing converts at the producer. *)
let ttc pmap =
  let n = Precision_map.nt pmap in
  let comm = Array.make (n * (n + 1) / 2) Fpformat.S_fp64 in
  for i = 0 to n - 1 do
    for j = 0 to i do
      comm.(pidx i j) <- Precision_map.storage pmap i j
    done
  done;
  { nt = n; comm; strat = Array.make (Array.length comm) Ttc }

let equal a b = a.nt = b.nt && a.comm = b.comm && a.strat = b.strat

(* Shipped format of tile (i, j) under map [t]: the transfer format for STC
   tiles, the storage format for TTC tiles (which ship as stored). *)
let shipped t pmap i j =
  if t.strat.(pidx i j) = Stc then t.comm.(pidx i j) else Precision_map.storage pmap i j

let override t pmap ~f =
  if Precision_map.nt pmap <> t.nt then invalid_arg "Comm_map.override: nt mismatch";
  let comm = Array.copy t.comm and strat = Array.copy t.strat in
  let n = t.nt in
  for i = 0 to n - 1 do
    for j = 0 to i do
      if n - 1 - j > 0 then begin
        (* Only broadcasting tiles; an override must move strictly fewer
           bytes than what Algorithm 2 already ships, else it is ignored —
           never silently widened. *)
        match f i j with
        | Some s
          when Fpformat.scalar_bytes s < Fpformat.scalar_bytes (shipped t pmap i j) ->
          comm.(pidx i j) <- s;
          strat.(pidx i j) <- Stc
        | _ -> ()
      end
    done
  done;
  { nt = n; comm; strat }

(* Broadcast fan-out of tile (i, j) in Algorithm 1.  A diagonal tile (k,k)
   feeds the TRSMs of column k: nt−1−k consumers.  An off-diagonal tile
   (m,k) feeds SYRK(m,k), the row GEMMs (k < n < m) and the column GEMMs
   (m < m' < nt): 1 + (m−k−1) + (nt−1−m) = nt−1−k consumers.  Both reduce
   to nt−1−column. *)
let consumers t i j =
  assert (i >= j && j >= 0 && i < t.nt);
  t.nt - 1 - j

(* The input format each consumer of broadcast tile (i, j) reads at — the
   same reader set Algorithm 2 scans, plus the diagonal SYRK (which the
   broadcast-format scan deliberately excludes, Fig 4a, but which still
   pays a conversion when the shipped form differs from its input). *)
let consumer_input_scalars pmap i j =
  let n = Precision_map.nt pmap in
  if i = j then List.init (n - 1 - i) (fun d -> trsm_input_scalar pmap (i + 1 + d) i)
  else begin
    let m = i and k = j in
    let syrk = Fpformat.input_scalar (Precision_map.get pmap m m) in
    let row = List.init (m - k - 1) (fun d -> gemm_input_scalar pmap m (k + 1 + d)) in
    let col = List.init (n - 1 - m) (fun d -> gemm_input_scalar pmap (m + 1 + d) m) in
    syrk :: (row @ col)
  end

type motion = {
  bytes_stc : float;
  bytes_ttc : float;
  bytes_fp64 : float;
  conv_stc : int;
  conv_ttc : int;
  transfers : int;
}

let motion t pmap ~nb =
  if Precision_map.nt pmap <> t.nt then invalid_arg "Comm_map.motion: nt mismatch";
  let elems = float_of_int (nb * nb) in
  let b_stc = ref 0. and b_ttc = ref 0. and b_64 = ref 0. in
  let c_stc = ref 0 and c_ttc = ref 0 and edges = ref 0 in
  for i = 0 to t.nt - 1 do
    for j = 0 to i do
      let rs = consumer_input_scalars pmap i j in
      let c = List.length rs in
      if c > 0 then begin
        edges := !edges + c;
        let storage = Precision_map.storage pmap i j in
        let fc = float_of_int c in
        (* TTC baseline: ship the storage format; every consumer whose
           input format differs runs its own conversion kernel. *)
        b_ttc := !b_ttc +. (fc *. elems *. float_of_int (Fpformat.scalar_bytes storage));
        List.iter (fun r -> if r <> storage then incr c_ttc) rs;
        (* Automated conversion: Algorithm 2's transfer format where it
           grants STC (one conversion at the producer), TTC elsewhere. *)
        let shipped = if t.strat.(pidx i j) = Stc then t.comm.(pidx i j) else storage in
        b_stc := !b_stc +. (fc *. elems *. float_of_int (Fpformat.scalar_bytes shipped));
        if t.strat.(pidx i j) = Stc then incr c_stc;
        List.iter (fun r -> if r <> shipped then incr c_stc) rs;
        (* All-FP64 reference: what the run would move with no precision
           adaptation at all. *)
        b_64 := !b_64 +. (fc *. elems *. 8.)
      end
    done
  done;
  {
    bytes_stc = !b_stc;
    bytes_ttc = !b_ttc;
    bytes_fp64 = !b_64;
    conv_stc = !c_stc;
    conv_ttc = !c_ttc;
    transfers = !edges;
  }

let stc_fraction t =
  let stc = Array.fold_left (fun acc s -> if s = Stc then acc + 1 else acc) 0 t.strat in
  float_of_int stc /. float_of_int (Array.length t.strat)

let render t =
  let buf = Buffer.create ((t.nt + 2) * (t.nt + 2)) in
  let char_of = function
    | Fpformat.S_fp64 -> '6'
    | Fpformat.S_fp32 -> '3'
    | Fpformat.S_tf32 -> 't'
    | Fpformat.S_bf16 -> 'b'
    | Fpformat.S_fp16 -> '1'
    | Fpformat.S_fp8_e4m3 -> '8'
    | Fpformat.S_fp8_e5m2 -> '5'
  in
  for i = 0 to t.nt - 1 do
    Buffer.add_string buf "  ";
    for j = 0 to t.nt - 1 do
      if j > i then Buffer.add_string buf ". "
      else begin
        let idx = pidx i j in
        let c = char_of t.comm.(idx) in
        Buffer.add_char buf (if t.strat.(idx) = Stc then Char.uppercase_ascii c else c);
        Buffer.add_char buf (if t.strat.(idx) = Stc then '*' else ' ')
      end
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf
    (Printf.sprintf
       "  cells: 6=FP64 3=FP32 1=FP16 8=FP8_E4M3 5=FP8_E5M2 (comm precision); '*' \
        marks STC tiles (%.1f%% STC)\n"
       (100. *. stc_fraction t));
  Buffer.contents buf
