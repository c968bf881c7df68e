module Stats = Geomix_util.Stats

let quantile xs p = if Array.length xs = 0 then nan else Stats.quantile xs p
let median xs = quantile xs 0.5

let beyond ~n p =
  if n <= 0 then 0 else n - 1 - int_of_float (Float.floor (p *. float_of_int (n - 1)))

let ladder = [ 0.5; 0.75; 0.8; 0.9; 0.95; 0.99; 0.999 ]

let tail_percentile n =
  List.fold_left
    (fun best p -> if beyond ~n p >= 10 then Some p else best)
    None ladder
