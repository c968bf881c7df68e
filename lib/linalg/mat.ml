module Fpformat = Geomix_precision.Fpformat

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { data : buf; rows : int; cols : int }

(* Every matrix this module allocates, counted where its storage is made. *)
let created_tiles = Atomic.make 0
let created_bytes = Atomic.make 0

let create ~rows ~cols =
  assert (rows >= 0 && cols >= 0);
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (rows * cols) in
  Bigarray.Array1.fill data 0.;
  Atomic.incr created_tiles;
  ignore (Atomic.fetch_and_add created_bytes (8 * rows * cols));
  { data; rows; cols }

let allocations () = (Atomic.get created_tiles, Atomic.get created_bytes)

let view t ~off ~rows ~cols =
  { data = Bigarray.Array1.sub t.data off (rows * cols); rows; cols }

let rows t = t.rows
let cols t = t.cols
let data t = t.data

(* Column-major: entry (i, j) lives at i + j·rows. *)
let idx t i j = i + (j * t.rows)

let get t i j =
  assert (i >= 0 && i < t.rows && j >= 0 && j < t.cols);
  Bigarray.Array1.get t.data (idx t i j)

let set t i j v =
  assert (i >= 0 && i < t.rows && j >= 0 && j < t.cols);
  Bigarray.Array1.set t.data (idx t i j) v

let unsafe_get t i j = Bigarray.Array1.unsafe_get t.data (i + (j * t.rows))
let unsafe_set t i j v = Bigarray.Array1.unsafe_set t.data (i + (j * t.rows)) v

let init ~rows ~cols f =
  let t = create ~rows ~cols in
  for j = 0 to cols - 1 do
    for i = 0 to rows - 1 do
      unsafe_set t i j (f i j)
    done
  done;
  t

let fill t v = Bigarray.Array1.fill t.data v

let copy t =
  let t' = create ~rows:t.rows ~cols:t.cols in
  Bigarray.Array1.blit t.data t'.data;
  t'

let blit ~src ~dst =
  assert (src.rows = dst.rows && src.cols = dst.cols);
  Bigarray.Array1.blit src.data dst.data

let of_arrays a =
  let rows = Array.length a in
  assert (rows > 0);
  let cols = Array.length a.(0) in
  init ~rows ~cols (fun i j -> a.(i).(j))

let to_arrays t = Array.init t.rows (fun i -> Array.init t.cols (fun j -> get t i j))

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1. else 0.)

let round_inplace scalar t = Fpformat.round_inplace scalar t.data

let rounded scalar t =
  let t' = copy t in
  round_inplace scalar t';
  t'

let scale t alpha =
  for k = 0 to Bigarray.Array1.dim t.data - 1 do
    Bigarray.Array1.unsafe_set t.data k (alpha *. Bigarray.Array1.unsafe_get t.data k)
  done

let add_scaled acc ~alpha x =
  assert (acc.rows = x.rows && acc.cols = x.cols);
  let n = Bigarray.Array1.dim acc.data in
  for k = 0 to n - 1 do
    Bigarray.Array1.unsafe_set acc.data k
      (Bigarray.Array1.unsafe_get acc.data k
      +. (alpha *. Bigarray.Array1.unsafe_get x.data k))
  done

let transpose t = init ~rows:t.cols ~cols:t.rows (fun i j -> unsafe_get t j i)

let zero_upper t =
  for j = 1 to t.cols - 1 do
    for i = 0 to Stdlib.min (j - 1) (t.rows - 1) do
      unsafe_set t i j 0.
    done
  done

let frobenius t =
  let n = Bigarray.Array1.dim t.data in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    let x = Bigarray.Array1.unsafe_get t.data k in
    acc := !acc +. (x *. x)
  done;
  sqrt !acc

let diff_frobenius a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  let n = Bigarray.Array1.dim a.data in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    let d = Bigarray.Array1.unsafe_get a.data k -. Bigarray.Array1.unsafe_get b.data k in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let rel_diff a ~reference =
  let denom = frobenius reference in
  let num = diff_frobenius a reference in
  if denom = 0. then if num = 0. then 0. else infinity else num /. denom

let matvec t x =
  assert (Array.length x = t.cols);
  let y = Array.make t.rows 0. in
  for j = 0 to t.cols - 1 do
    let xj = x.(j) in
    for i = 0 to t.rows - 1 do
      y.(i) <- y.(i) +. (unsafe_get t i j *. xj)
    done
  done;
  y

let matvec_trans t x =
  assert (Array.length x = t.rows);
  let y = Array.make t.cols 0. in
  for j = 0 to t.cols - 1 do
    let acc = ref 0. in
    for i = 0 to t.rows - 1 do
      acc := !acc +. (unsafe_get t i j *. x.(i))
    done;
    y.(j) <- !acc
  done;
  y

let sub_view_copy t ~row ~col ~rows ~cols =
  assert (row >= 0 && col >= 0 && row + rows <= t.rows && col + cols <= t.cols);
  init ~rows ~cols (fun i j -> unsafe_get t (row + i) (col + j))

let set_block t ~row ~col block =
  assert (row + block.rows <= t.rows && col + block.cols <= t.cols);
  for j = 0 to block.cols - 1 do
    for i = 0 to block.rows - 1 do
      unsafe_set t (row + i) (col + j) (unsafe_get block i j)
    done
  done

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.rows - 1 do
    Format.fprintf ppf "@[<h>";
    for j = 0 to t.cols - 1 do
      Format.fprintf ppf "% .5g " (get t i j)
    done;
    Format.fprintf ppf "@]@,"
  done;
  Format.fprintf ppf "@]"
