type grid = { p : int; q : int }

let squarest_grid n =
  assert (n > 0);
  let rec best p = if n mod p = 0 then p else best (p - 1) in
  let p = best (int_of_float (sqrt (float_of_int n))) in
  { p; q = n / p }

let owner g ~i ~j = ((i mod g.p) * g.q) + (j mod g.q)
