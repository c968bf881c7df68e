module Fpformat = Geomix_precision.Fpformat
module Tiled = Geomix_tile.Tiled
module Heatmap = Geomix_util.Heatmap

(* One byte per lower tile, the format's index in [Fpformat.all]: callers
   that log a map per likelihood evaluation keep many of them. *)
type t = { nt : int; u_req : float; prec : Bytes.t }

let pidx i j = (i * (i + 1) / 2) + j
let formats = Array.of_list Fpformat.all

let code p =
  let rec go i = if formats.(i) = p then Char.chr i else go (i + 1) in
  go 0

let make ~nt p = Bytes.make (nt * (nt + 1) / 2) (code p)

let nt t = t.nt
let u_req t = t.u_req

let get t i j =
  assert (i >= j && j >= 0 && i < t.nt);
  formats.(Char.code (Bytes.get t.prec (pidx i j)))

let storage t i j = Fpformat.storage_scalar (get t i j)

(* Lowest-precision-first candidate order: FP16 before FP16_32 before FP32;
   FP64 is the fallback and need not be listed. *)
let candidates chain =
  chain
  |> List.filter (fun p -> p <> Fpformat.Fp64)
  |> List.sort (fun a b -> Fpformat.compare_precision a b)

let select ~cands ~u_req ratio =
  let ok p = ratio <= u_req /. Fpformat.rule_epsilon p in
  match List.find_opt ok cands with Some p -> p | None -> Fpformat.Fp64

let of_tile_norms ?(chain = Fpformat.framework_chain) ~u_req ~nt ~global_norm tile_norm =
  assert (nt > 0 && u_req > 0. && global_norm > 0.);
  let cands = candidates chain in
  let prec = make ~nt Fpformat.Fp64 in
  for i = 0 to nt - 1 do
    for j = 0 to i - 1 do
      let ratio = tile_norm i j *. float_of_int nt /. global_norm in
      Bytes.set prec (pidx i j) (code (select ~cands ~u_req ratio))
    done
  done;
  { nt; u_req; prec }

let of_tiled ?chain ~u_req tiled =
  of_tile_norms ?chain ~u_req ~nt:(Tiled.nt tiled) ~global_norm:(Tiled.frobenius tiled)
    (fun i j -> Tiled.tile_frobenius tiled i j)

let of_element_fn ?chain ?(samples_per_tile = 64) ~u_req ~n ~nb element =
  assert (n > 0 && nb > 0 && samples_per_tile > 0);
  let nt = (n + nb - 1) / nb in
  let s = Stdlib.max 1 (int_of_float (sqrt (float_of_int samples_per_tile))) in
  (* Stratified subsample of tile (i, j): an s×s grid of entries, norm
     scaled by (tile area / sample count). *)
  let est_norm i j =
    let rows = Stdlib.min nb (n - (i * nb)) and cols = Stdlib.min nb (n - (j * nb)) in
    let sr = Stdlib.min s rows and sc = Stdlib.min s cols in
    let acc = ref 0. in
    for a = 0 to sr - 1 do
      for b = 0 to sc - 1 do
        let r = (i * nb) + (a * rows / sr) + (rows / (2 * sr)) in
        let c = (j * nb) + (b * cols / sc) + (cols / (2 * sc)) in
        let v = element r c in
        acc := !acc +. (v *. v)
      done
    done;
    let area = float_of_int rows *. float_of_int cols in
    sqrt (!acc *. area /. float_of_int (sr * sc))
  in
  let norms = Array.make (nt * (nt + 1) / 2) 0. in
  let gsq = ref 0. in
  for i = 0 to nt - 1 do
    for j = 0 to i do
      let v = est_norm i j in
      norms.(pidx i j) <- v;
      let w = if i = j then 1. else 2. in
      gsq := !gsq +. (w *. v *. v)
    done
  done;
  of_tile_norms ?chain ~u_req ~nt ~global_norm:(sqrt !gsq) (fun i j -> norms.(pidx i j))

(* Arbitrary per-tile assignment, bypassing the norm rule.  Property suites
   use this to build adversarial/random kernel-precision maps. *)
let of_fn ~nt f =
  assert (nt > 0);
  let prec = make ~nt Fpformat.Fp64 in
  for i = 0 to nt - 1 do
    for j = 0 to i do
      Bytes.set prec (pidx i j) (code (f i j))
    done
  done;
  { nt; u_req = nan; prec }

let uniform ~nt p = { nt; u_req = nan; prec = make ~nt p }

let two_level ~nt ~off_diag =
  let t = uniform ~nt off_diag in
  for k = 0 to nt - 1 do
    Bytes.set t.prec (pidx k k) (code Fpformat.Fp64)
  done;
  t

(* Recovery escalation: promote the row/column band through diagonal block
   [k] to FP64 (tiles (k, j) for j <= k and (i, k) for i >= k), leaving
   the rest of the map — and the u_req it was built for — untouched. *)
let escalate_band t k =
  assert (k >= 0 && k < t.nt);
  let prec = Bytes.copy t.prec in
  let fp64 = code Fpformat.Fp64 in
  for j = 0 to k do
    Bytes.set prec (pidx k j) fp64
  done;
  for i = k to t.nt - 1 do
    Bytes.set prec (pidx i k) fp64
  done;
  { t with prec }

let all_fp64 t =
  let fp64 = code Fpformat.Fp64 in
  Bytes.for_all (fun c -> c = fp64) t.prec

let fractions t =
  let total = float_of_int (Bytes.length t.prec) in
  Fpformat.all
  |> List.filter_map (fun p ->
       let cp = code p in
       let c = Bytes.fold_left (fun acc q -> if q = cp then acc + 1 else acc) 0 t.prec in
       if c = 0 then None else Some (p, float_of_int c /. total))

let render t =
  (* Drawing characters: FP64 '6', FP32 '3', TF32 't', FP16_32 'h',
     BF16_32 'b', FP16 '1'. *)
  let cats =
    List.map2
      (fun p ch -> (Fpformat.name p, ch))
      Fpformat.all
      [ '6'; '3'; 't'; 'h'; 'b'; '1' ]
  in
  let hm = Heatmap.create ~nt:t.nt ~categories:cats in
  Heatmap.render hm ~cell:(fun ~row ~col ->
    if col > row then None else Some (Char.code (Bytes.get t.prec (pidx row col))))
