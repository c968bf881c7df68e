module Rng = Geomix_util.Rng

type t = { dim : int; coords : float array array }

let dim t = t.dim
let count t = Array.length t.coords
let coord t i = t.coords.(i)

let jittered_grid ~dims ~rng ~n =
  assert (n > 0);
  let side =
    int_of_float (Float.ceil (Float.pow (float_of_int n) (1. /. float_of_int dims)))
  in
  let cell = 1. /. float_of_int side in
  let total = int_of_float (Float.pow (float_of_int side) (float_of_int dims)) in
  let all =
    Array.init total (fun c ->
      let rec digits c k acc =
        if k = 0 then acc else digits (c / side) (k - 1) ((c mod side) :: acc)
      in
      let ds = digits c dims [] in
      Array.of_list
        (List.map
           (fun d ->
             (* Uniform inside the middle 80% of the cell. *)
             (float_of_int d *. cell) +. (cell *. (0.1 +. (0.8 *. Rng.float rng))))
           ds))
  in
  (* Keep a uniformly random subset of exactly n cells. *)
  Rng.shuffle rng all;
  { dim = dims; coords = Array.sub all 0 n }

let jittered_grid_2d ~rng ~n = jittered_grid ~dims:2 ~rng ~n
let jittered_grid_3d ~rng ~n = jittered_grid ~dims:3 ~rng ~n

let uniform_2d ~rng ~n =
  { dim = 2; coords = Array.init n (fun _ -> Array.init 2 (fun _ -> Rng.float rng)) }

let subset t idx =
  { t with coords = Array.of_list (List.map (fun i -> Array.copy t.coords.(i)) idx) }

let distance t i j =
  let a = t.coords.(i) and b = t.coords.(j) in
  let acc = ref 0. in
  for d = 0 to t.dim - 1 do
    let x = a.(d) -. b.(d) in
    acc := !acc +. (x *. x)
  done;
  sqrt !acc

(* Morton key: interleave the top 16 bits of each (quantised) coordinate. *)
let morton_key dims coords =
  let quant = Array.map (fun c ->
    let v = int_of_float (c *. 65536.) in
    Stdlib.min 65535 (Stdlib.max 0 v))
    coords
  in
  let key = ref 0 in
  for bit = 15 downto 0 do
    for d = 0 to dims - 1 do
      key := (!key lsl 1) lor ((quant.(d) lsr bit) land 1)
    done
  done;
  !key

let morton_sort t =
  let keyed = Array.map (fun c -> (morton_key t.dim c, c)) t.coords in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) keyed;
  { t with coords = Array.map snd keyed }
