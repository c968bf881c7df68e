module Fp = Geomix_precision.Fpformat
module Pm = Geomix_core.Precision_map
module Cm = Geomix_core.Comm_map

type tile_advice = {
  i : int;
  j : int;
  base_comm : Fp.scalar;
  advised_comm : Fp.scalar;
  ratio : float;
}

type t = {
  u_req : float;
  pmap : Pm.t;
  base : Cm.t;
  cmap : Cm.t;
  demotions : tile_advice list;
  rule_worst : float;
}

let default_chain = [ Fp.S_fp8_e4m3; Fp.S_fp8_e5m2; Fp.S_fp16; Fp.S_bf16 ]

let shipped = Cm.shipped

let advise ?(chain = default_chain) ~u_req ~ranges ~pmap () =
  let nt = Pm.nt pmap in
  if Range_tracker.nt ranges <> nt then invalid_arg "Type_advisor.advise: nt mismatch";
  let base = Cm.compute pmap in
  let gnorm = Range_tracker.input_norm ranges in
  if gnorm <= 0. then
    invalid_arg
      "Type_advisor.advise: tracker holds no input mass — observe_tiled the pilot \
       matrix before advising";
  let fnt = float_of_int nt in
  let ratio i j = Range_tracker.input_tile_norm ranges i j *. fnt /. gnorm in
  let demotions = ref [] in
  let pick i j =
    let cur = shipped base pmap i j in
    let st = Range_tracker.stats ranges i j in
    let admissible s =
      (* Strictly narrower on the wire, *)
      Fp.scalar_bytes s < Fp.scalar_bytes cur
      (* the norm rule at the scalar level: the tile's significance
         tolerates a u(s) relative perturbation within the accuracy
         target, *)
      && ratio i j *. Fp.scalar_unit_roundoff s <= u_req
      (* and magnitude evidence: everything the pilot observed stays in
         the format's NORMAL range (margin 2^mant over the subnormal
         spacing = the smallest normal value), so the conversion is a
         plain u(s) relative rounding — no saturation, no gradual
         underflow. *)
      && Range_tracker.fits ~margin:(0.5 /. Fp.scalar_unit_roundoff s) st s
    in
    match List.find_opt admissible chain with
    | Some s ->
      demotions :=
        { i; j; base_comm = cur; advised_comm = s; ratio = ratio i j } :: !demotions;
      Some s
    | None -> None
  in
  let cmap = Cm.override base pmap ~f:pick in
  (* Worst Higham–Mary product over kernel epsilons and advised transfer
     roundoffs — the quantity the differential oracle bounds the measured
     residual by. *)
  let rule_worst = ref 0. in
  for i = 0 to nt - 1 do
    for j = 0 to i do
      let e = Fp.rule_epsilon (Pm.get pmap i j) in
      let e =
        if nt - 1 - j > 0 then
          Float.max e (Fp.scalar_unit_roundoff (shipped cmap pmap i j))
        else e
      in
      let p = e *. ratio i j in
      if p > !rule_worst then rule_worst := p
    done
  done;
  { u_req; pmap; base; cmap; demotions = List.rev !demotions; rule_worst = !rule_worst }

let demoted t = List.length t.demotions

let fp8_tiles t =
  List.length
    (List.filter
       (fun d -> d.advised_comm = Fp.S_fp8_e4m3 || d.advised_comm = Fp.S_fp8_e5m2)
       t.demotions)

let residual_bound t = (64. *. float_of_int (Pm.nt t.pmap) *. t.rule_worst) +. 1e-13
