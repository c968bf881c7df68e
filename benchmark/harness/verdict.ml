type t = Improved | Within_bound | Regressed | Unresolved

let name = function
  | Improved -> "improved"
  | Within_bound -> "within bound"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type summary = { median : float; q1 : float; q3 : float; runs : int }

let summarize xs =
  {
    median = Quantile.median xs;
    q1 = Quantile.quantile xs 0.25;
    q3 = Quantile.quantile xs 0.75;
    runs = Array.length xs;
  }

let min_pairs = 10

type decision = {
  verdict : t;
  parent : summary;
  change : summary;
  wins : int;
  pairs : int;
  change_frac : float;
}

let decide ~better ~bound ~parent ~change =
  if Array.length parent = 0 || Array.length change = 0 then
    invalid_arg "Verdict.decide: no runs";
  (* Signed so that a positive gain is an improvement in either direction. *)
  let gain a b = match better with Spec.Lower -> a -. b | Spec.Higher -> b -. a in
  let ps = summarize parent and cs = summarize change in
  let pairs = min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if gain parent.(i) change.(i) > 0. then incr wins
  done;
  let scale = Float.abs ps.median in
  let delta = gain ps.median cs.median in
  let change_frac = if scale = 0. then 0. else delta /. scale in
  let parent_iqr = ps.q3 -. ps.q1 in
  let best xs = Array.fold_left (fun acc x -> if gain acc x > 0. then x else acc) xs.(0) xs in
  let worst xs = Array.fold_left (fun acc x -> if gain x acc > 0. then x else acc) xs.(0) xs in
  (* The two sides do not overlap at all. *)
  let all_better = gain (best parent) (worst change) > 0. in
  let all_worse = gain (best change) (worst parent) > 0. in
  let verdict =
    if pairs >= min_pairs && 10 * !wins >= 9 * pairs && delta > parent_iqr then Improved
    else
      match bound with
      | None -> Unresolved
      | Some b ->
        let regressed = -.delta > b *. scale in
        let wide = scale > 0. && parent_iqr /. scale > b in
        if wide && not (all_better || (regressed && all_worse)) then Unresolved
        else if regressed then Regressed
        else Within_bound
  in
  { verdict; parent = ps; change = cs; wins = !wins; pairs; change_frac }
