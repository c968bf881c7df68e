module Pm = Geomix_core.Precision_map
module Cm = Geomix_core.Comm_map
module Fp = Geomix_precision.Fpformat

let scalar = Alcotest.testable Fp.pp_scalar ( = )
let strat = Alcotest.testable (fun ppf s ->
  Format.pp_print_string ppf (match s with Cm.Stc -> "STC" | Cm.Ttc -> "TTC")) ( = )

let decay rate i j = exp (-.rate *. float_of_int (abs (i - j)))

let test_uniform_fp64_all_ttc () =
  (* A pure FP64 run has no precision slack anywhere: everything TTC at
     storage precision — no accuracy impact from communication. *)
  let cm = Cm.compute (Pm.uniform ~nt:8 Fp.Fp64) in
  for i = 0 to 7 do
    for j = 0 to i do
      Alcotest.(check strat) "ttc" Cm.Ttc (Cm.strategy cm i j);
      Alcotest.(check scalar) "fp64" Fp.S_fp64 (Cm.comm_scalar cm i j)
    done
  done;
  Alcotest.(check (float 0.)) "stc fraction" 0. (Cm.stc_fraction cm)

let test_two_level_fp16_all_stc () =
  (* The paper's FP64/FP16 extreme: "all communications can employ STC"
     (Section VII-D). *)
  let nt = 8 in
  let cm = Cm.compute (Pm.two_level ~nt ~off_diag:Fp.Fp16) in
  (* Diagonal tiles broadcast FP32 (< FP64 storage) to the FP32 TRSMs. *)
  for k = 0 to nt - 2 do
    Alcotest.(check strat) "diag stc" Cm.Stc (Cm.strategy cm k k);
    Alcotest.(check scalar) "diag ships fp32" Fp.S_fp32 (Cm.comm_scalar cm k k)
  done;
  (* Off-diagonal tiles ship FP16 (< FP32 storage). *)
  for k = 0 to nt - 2 do
    for m = k + 1 to nt - 1 do
      Alcotest.(check strat) "off stc" Cm.Stc (Cm.strategy cm m k);
      Alcotest.(check scalar) "ships fp16" Fp.S_fp16 (Cm.comm_scalar cm m k)
    done
  done

let test_two_level_fp16_32_same_transfers () =
  (* FP16_32 consumes FP16 inputs, so its communication map matches FP16's. *)
  let nt = 6 in
  let a = Cm.compute (Pm.two_level ~nt ~off_diag:Fp.Fp16) in
  let b = Cm.compute (Pm.two_level ~nt ~off_diag:Fp.Fp16_32) in
  for i = 0 to nt - 1 do
    for j = 0 to i do
      Alcotest.(check scalar) "same comm" (Cm.comm_scalar a i j) (Cm.comm_scalar b i j);
      Alcotest.(check strat) "same strat" (Cm.strategy a i j) (Cm.strategy b i j)
    done
  done

let test_comm_never_above_storage () =
  let pmap = Pm.of_element_fn ~u_req:1e-6 ~n:2048 ~nb:128 (decay 0.01) in
  let cm = Cm.compute pmap in
  for i = 0 to Pm.nt pmap - 1 do
    for j = 0 to i do
      Alcotest.(check bool) "comm ≤ storage" true
        (Fp.scalar_rank (Cm.comm_scalar cm i j) <= Fp.scalar_rank (Pm.storage pmap i j))
    done
  done

let test_stc_iff_strictly_below_storage () =
  let pmap = Pm.of_element_fn ~u_req:1e-5 ~n:2048 ~nb:128 (decay 0.008) in
  let cm = Cm.compute pmap in
  for i = 0 to Pm.nt pmap - 1 do
    for j = 0 to i do
      let stc = Cm.strategy cm i j = Cm.Stc in
      let below = Fp.scalar_rank (Cm.comm_scalar cm i j) < Fp.scalar_rank (Pm.storage pmap i j) in
      Alcotest.(check bool) "STC ⇔ comm < storage" below stc
    done
  done

let test_comm_floor_is_tile_significance () =
  (* An FP64-class panel tile must never ship below FP64 unless its GEMM
     successors all consume less — the accuracy-safety clamp. *)
  let pmap = Pm.uniform ~nt:6 Fp.Fp64 in
  let cm = Cm.compute pmap in
  (* Last-column tile (5,4) has only SYRK successors: with an FP64 tile the
     floor keeps comm at FP64 (contrast the FP16 two-level case above). *)
  Alcotest.(check scalar) "floor holds" Fp.S_fp64 (Cm.comm_scalar cm 5 4)

let test_diag_raised_by_fp64_trsm () =
  (* If any TRSM in the column runs FP64 the diagonal broadcast must be
     FP64 (Algorithm 2 lines 6–11). *)
  let nt = 4 in
  (* Column 0 contains an FP64 tile at (1,0) in a map where everything else
     is FP16-class: build via of_tile_norms with crafted norms. *)
  let norms i j = if i = 1 && j = 0 then 10. else 1e-8 in
  let pmap = Pm.of_tile_norms ~u_req:1e-9 ~nt ~global_norm:10. norms in
  Alcotest.(check bool) "tile (1,0) is FP64" true (Pm.get pmap 1 0 = Fp.Fp64);
  let cm = Cm.compute pmap in
  Alcotest.(check scalar) "diag (0,0) ships fp64" Fp.S_fp64 (Cm.comm_scalar cm 0 0);
  Alcotest.(check strat) "ttc" Cm.Ttc (Cm.strategy cm 0 0)

let test_last_diagonal_no_successors () =
  let cm = Cm.compute (Pm.two_level ~nt:5 ~off_diag:Fp.Fp16) in
  Alcotest.(check strat) "last diag ttc" Cm.Ttc (Cm.strategy cm 4 4)

let test_idempotent_and_deterministic () =
  let pmap = Pm.of_element_fn ~u_req:1e-7 ~n:1024 ~nb:128 (decay 0.01) in
  let a = Cm.compute pmap and b = Cm.compute pmap in
  for i = 0 to Pm.nt pmap - 1 do
    for j = 0 to i do
      Alcotest.(check scalar) "same" (Cm.comm_scalar a i j) (Cm.comm_scalar b i j)
    done
  done

let test_render () =
  let cm = Cm.compute (Pm.two_level ~nt:4 ~off_diag:Fp.Fp16) in
  let s = Cm.render cm in
  Alcotest.(check bool) "non-empty with STC marks" true
    (String.length s > 0 && String.contains s '*')

let test_motion_nt4_hand_computed () =
  (* NT=4 two-level FP64/FP16, every quantity derivable by hand.  Tile
     (i,j) broadcasts to nt-1-j consumers: 20 transfers, of which 6 come
     from diagonal tiles (FP64 storage, shipped FP32 under STC — the
     Algorithm 2 FP32 floor on the panel broadcast) and 14 from
     off-diagonal tiles (FP32 storage for an FP16-class tile, shipped
     FP16):
       STC  = 6·4 + 14·2 =  52 B per nb² elements
       TTC  = 6·8 + 14·4 = 104
       FP64 = 20·8       = 160
     Conversions: STC converts once per broadcasting STC tile (9 of the 10
     broadcasters; the last diagonal has no consumers) plus once at each of
     the 6 diagonal consumers, whose TRSMs ingest FP16 below the FP32 wire
     format; TTC converts at every one of the 20 consumers. *)
  let nb = 1024 in
  let pmap = Pm.two_level ~nt:4 ~off_diag:Fp.Fp16 in
  let m = Cm.motion (Cm.compute pmap) pmap ~nb in
  let per_elem bytes = bytes /. float_of_int (nb * nb) in
  Alcotest.(check int) "transfers" 20 m.Cm.transfers;
  Alcotest.(check (float 0.)) "STC bytes" 52. (per_elem m.Cm.bytes_stc);
  Alcotest.(check (float 0.)) "TTC bytes" 104. (per_elem m.Cm.bytes_ttc);
  Alcotest.(check (float 0.)) "FP64 bytes" 160. (per_elem m.Cm.bytes_fp64);
  Alcotest.(check int) "STC conversions" 15 m.Cm.conv_stc;
  Alcotest.(check int) "TTC conversions" 20 m.Cm.conv_ttc

let test_motion_fp64_degenerate () =
  (* Uniform FP64: the three accountings coincide and nothing converts. *)
  let pmap = Pm.uniform ~nt:5 Fp.Fp64 in
  let m = Cm.motion (Cm.compute pmap) pmap ~nb:64 in
  Alcotest.(check (float 0.)) "stc = fp64" m.Cm.bytes_fp64 m.Cm.bytes_stc;
  Alcotest.(check (float 0.)) "ttc = fp64" m.Cm.bytes_fp64 m.Cm.bytes_ttc;
  Alcotest.(check int) "no stc conv" 0 m.Cm.conv_stc;
  Alcotest.(check int) "no ttc conv" 0 m.Cm.conv_ttc

let test_motion_fp8_override () =
  (* Satellite regression for the autotuner entry point: an FP8 override
     must show up in the reported STC bytes — no silent FP64 (or FP16)
     fallback anywhere in the accounting.  Same NT=4 two-level map as the
     hand-computed case: 6 diagonal transfers ship FP32 (4 B), 14
     off-diagonal ship FP16 (2 B).  Demoting every off-diagonal broadcast
     to E4M3 (1 B) gives 6·4 + 14·1 = 38 B per nb² vs the base 52. *)
  let nb = 1024 in
  let pmap = Pm.two_level ~nt:4 ~off_diag:Fp.Fp16 in
  let base = Cm.compute pmap in
  let cm =
    Cm.override base pmap ~f:(fun i j ->
      if i <> j then Some Fp.S_fp8_e4m3 else None)
  in
  let per_elem bytes = bytes /. float_of_int (nb * nb) in
  let m = Cm.motion cm pmap ~nb and m0 = Cm.motion base pmap ~nb in
  Alcotest.(check (float 0.)) "base STC bytes" 52. (per_elem m0.Cm.bytes_stc);
  Alcotest.(check (float 0.)) "fp8 STC bytes" 38. (per_elem m.Cm.bytes_stc);
  Alcotest.(check bool) "strictly fewer bytes on the wire" true
    (m.Cm.bytes_stc < m0.Cm.bytes_stc);
  (* TTC and FP64 accountings ignore transfer overrides. *)
  Alcotest.(check (float 0.)) "ttc unchanged" m0.Cm.bytes_ttc m.Cm.bytes_ttc;
  Alcotest.(check (float 0.)) "fp64 unchanged" m0.Cm.bytes_fp64 m.Cm.bytes_fp64;
  (* Overridden broadcasters ship E4M3 under STC. *)
  for i = 1 to 3 do
    for j = 0 to i - 1 do
      if 4 - 1 - j > 0 then begin
        Alcotest.(check strat) "stc" Cm.Stc (Cm.strategy cm i j);
        Alcotest.(check scalar) "e4m3" Fp.S_fp8_e4m3 (Cm.comm_scalar cm i j)
      end
    done
  done

let test_override_never_widens () =
  let pmap = Pm.two_level ~nt:4 ~off_diag:Fp.Fp16 in
  let base = Cm.compute pmap in
  (* Asking for FP64 everywhere would widen every transfer: refused
     tile-for-tile, the map comes back unchanged. *)
  let widened = Cm.override base pmap ~f:(fun _ _ -> Some Fp.S_fp64) in
  Alcotest.(check bool) "widening override is a no-op" true (Cm.equal base widened);
  (* The last diagonal tile never broadcasts, so even a narrowing request
     leaves it alone. *)
  let cm = Cm.override base pmap ~f:(fun i j ->
    if i = 3 && j = 3 then Some Fp.S_fp8_e5m2 else None)
  in
  Alcotest.(check bool) "non-broadcasting tile untouched" true (Cm.equal base cm)

let prop_motion_ordering =
  QCheck.Test.make ~name:"bytes: STC ≤ TTC ≤ FP64 for any norm-rule map" ~count:30
    (QCheck.pair (QCheck.float_range 1e-10 1e-2) (QCheck.float_range 0.002 0.1))
    (fun (u, rate) ->
      let pmap = Pm.of_element_fn ~u_req:u ~n:512 ~nb:64 (decay rate) in
      let m = Cm.motion (Cm.compute pmap) pmap ~nb:64 in
      m.Cm.bytes_stc <= m.Cm.bytes_ttc && m.Cm.bytes_ttc <= m.Cm.bytes_fp64)

let prop_ttc_map_is_ttc_baseline =
  QCheck.Test.make ~name:"ttc map: STC accounting equals TTC accounting" ~count:30
    (QCheck.pair (QCheck.float_range 1e-10 1e-2) (QCheck.float_range 0.002 0.1))
    (fun (u, rate) ->
      let pmap = Pm.of_element_fn ~u_req:u ~n:512 ~nb:64 (decay rate) in
      let m = Cm.motion (Cm.ttc pmap) pmap ~nb:64 in
      let m_alg2 = Cm.motion (Cm.compute pmap) pmap ~nb:64 in
      Cm.stc_fraction (Cm.ttc pmap) = 0.
      && m.Cm.bytes_stc = m.Cm.bytes_ttc
      && m.Cm.conv_stc = m.Cm.conv_ttc
      && m.Cm.bytes_ttc = m_alg2.Cm.bytes_ttc
      && m.Cm.conv_ttc = m_alg2.Cm.conv_ttc)

let prop_comm_bounded =
  QCheck.Test.make ~name:"comm scalar always within [fp16, storage]" ~count:30
    (QCheck.pair (QCheck.float_range 1e-10 1e-2) (QCheck.float_range 0.002 0.1))
    (fun (u, rate) ->
      let pmap = Pm.of_element_fn ~u_req:u ~n:512 ~nb:64 (decay rate) in
      let cm = Cm.compute pmap in
      let ok = ref true in
      for i = 0 to Pm.nt pmap - 1 do
        for j = 0 to i do
          let c = Fp.scalar_rank (Cm.comm_scalar cm i j) in
          if c < Fp.scalar_rank Fp.S_fp16 || c > Fp.scalar_rank (Pm.storage pmap i j) then
            ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "comm_map"
    [
      ( "algorithm 2",
        [
          Alcotest.test_case "uniform FP64 ⇒ all TTC" `Quick test_uniform_fp64_all_ttc;
          Alcotest.test_case "FP64/FP16 ⇒ all STC" `Quick test_two_level_fp16_all_stc;
          Alcotest.test_case "FP16_32 ships like FP16" `Quick test_two_level_fp16_32_same_transfers;
          Alcotest.test_case "comm ≤ storage" `Quick test_comm_never_above_storage;
          Alcotest.test_case "STC ⇔ strictly below storage" `Quick test_stc_iff_strictly_below_storage;
          Alcotest.test_case "significance floor" `Quick test_comm_floor_is_tile_significance;
          Alcotest.test_case "diag raised by FP64 TRSM" `Quick test_diag_raised_by_fp64_trsm;
          Alcotest.test_case "last diagonal" `Quick test_last_diagonal_no_successors;
          Alcotest.test_case "deterministic" `Quick test_idempotent_and_deterministic;
          Alcotest.test_case "render" `Quick test_render;
          QCheck_alcotest.to_alcotest prop_comm_bounded;
        ] );
      ( "data motion",
        [
          Alcotest.test_case "NT=4 hand-computed" `Quick test_motion_nt4_hand_computed;
          Alcotest.test_case "uniform FP64 degenerate" `Quick test_motion_fp64_degenerate;
          Alcotest.test_case "FP8 override changes STC bytes" `Quick
            test_motion_fp8_override;
          Alcotest.test_case "override never widens" `Quick test_override_never_widens;
          QCheck_alcotest.to_alcotest prop_motion_ordering;
          QCheck_alcotest.to_alcotest prop_ttc_map_is_ttc_baseline;
        ] );
    ]
