(* ABFT tile integrity: checksum discrimination (lawful precision
   conversion passes the fingerprint a flipped high-order bit fails),
   Guard stamp/verify/restore/derive semantics, the guarantee that a
   guarded fault-free factorization is bitwise identical to an unguarded
   one, and the acceptance property: with seeded silent data corruption
   armed, nothing ever escapes the guard silently. *)

module Checksum = Geomix_integrity.Checksum
module Guard = Geomix_integrity.Guard
module Mat = Geomix_linalg.Mat
module Tiled = Geomix_tile.Tiled
module Fp = Geomix_precision.Fpformat
module Pm = Geomix_core.Precision_map
module Cm = Geomix_core.Comm_map
module Chol = Geomix_core.Mp_cholesky
module Fault = Geomix_fault.Fault
module Retry = Geomix_fault.Retry
module Metrics = Geomix_obs.Metrics
module Pool = Geomix_parallel.Pool

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xAB47 |]) t

let tile rows cols =
  Mat.init ~rows ~cols (fun i j ->
    sin (float_of_int ((i * 31) + j)) +. (0.5 /. float_of_int (i + j + 1)))

(* Flip one bit of element [idx] (column-major) in place. *)
let flip_bit m ~bit ~idx =
  let rows = Mat.rows m in
  let i = idx mod rows and j = idx / rows in
  let bits = Int64.bits_of_float (Mat.get m i j) in
  Mat.set m i j
    (Int64.float_of_bits (Int64.logxor bits (Int64.shift_left 1L bit)))

(* Checksum *)

let test_checksum_exact () =
  let m = tile 7 5 in
  let cs = Checksum.stamp m in
  Alcotest.(check int) "bytes covered" (8 * 7 * 5) (Checksum.bytes cs);
  Alcotest.(check bool) "copy matches" true (Checksum.matches cs (Mat.copy m));
  let low = Mat.copy m in
  flip_bit low ~bit:0 ~idx:17;
  Alcotest.(check bool) "one low mantissa bit fails" false
    (Checksum.matches cs low);
  Alcotest.(check bool) "dimension mismatch fails" false
    (Checksum.matches cs (tile 5 7))

let test_checksum_tolerates_conversion () =
  let m = tile 8 8 in
  List.iter
    (fun scalar ->
      let stored = Mat.rounded scalar m in
      let cs = Checksum.stamp m in
      Alcotest.(check bool)
        (Printf.sprintf "rounding to %s passes" (Fp.scalar_name scalar))
        true
        (Checksum.matches_scalar cs ~scalar stored);
      (* The same hop with one exponent-region bit flipped must fail: the
         norm moves by O(|a_ij|), far beyond u_low·‖A‖_F. *)
      let bad = Mat.copy stored in
      flip_bit bad ~bit:62 ~idx:3;
      Alcotest.(check bool)
        (Printf.sprintf "high-bit flip after %s rounding fails"
           (Fp.scalar_name scalar))
        false
        (Checksum.matches_scalar cs ~scalar bad))
    [ Fp.S_fp32; Fp.S_bf16; Fp.S_fp16; Fp.S_fp8_e4m3; Fp.S_fp8_e5m2 ]

let test_checksum_fp64_hop_is_exact () =
  (* The identity conversion degrades to the exact discipline: even a
     norm-invisible low-bit flip fails. *)
  let m = tile 6 6 in
  let cs = Checksum.stamp m in
  let bad = Mat.copy m in
  flip_bit bad ~bit:0 ~idx:0;
  Alcotest.(check bool) "S_fp64 hop rejects low-bit flip" false
    (Checksum.matches_scalar cs ~scalar:Fp.S_fp64 bad)

let test_checksum_nonfinite_fails () =
  let m = tile 4 4 in
  let cs = Checksum.stamp m in
  let bad = Mat.copy m in
  Mat.set bad 1 2 Float.nan;
  Alcotest.(check bool) "NaN in transit fails the fingerprint" false
    (Checksum.matches_scalar cs ~scalar:Fp.S_fp16 bad)

(* Guard *)

let test_guard_stamp_verify_restore () =
  let reg = Metrics.create () in
  let g = Guard.create ~obs:reg ~snapshots:true () in
  let m = tile 5 5 in
  Alcotest.(check bool) "unstamped data is trusted" true (Guard.check g ~key:0 m);
  Guard.stamp g ~key:0 m;
  Guard.verify g ~key:0 ~task:"t" m;
  flip_bit m ~bit:51 ~idx:7;
  Alcotest.(check bool) "corruption detected" false (Guard.check g ~key:0 m);
  Guard.note_detected g ~key:0 ~task:"t";
  Alcotest.(check bool) "snapshot repairs in place" true (Guard.restore g ~key:0 m);
  Guard.verify g ~key:0 ~task:"t" m;
  Guard.note_recovered g ~key:0 ~task:"t";
  Alcotest.(check int) "detected" 1 (Guard.detected g);
  Alcotest.(check int) "recovered" 1 (Guard.recovered g);
  Alcotest.(check int) "no unrecovered violations" 0 (Guard.violations g);
  (* verify on a mismatch raises, and counts the violation. *)
  flip_bit m ~bit:51 ~idx:7;
  (match Guard.verify g ~key:0 ~task:"boom" m with
  | () -> Alcotest.fail "verify accepted corrupted tile"
  | exception Guard.Corrupt v ->
    Alcotest.(check int) "violation key" 0 v.Guard.key;
    Alcotest.(check string) "violation task" "boom" v.Guard.task);
  Alcotest.(check int) "violation counted" 1 (Guard.violations g)

let test_guard_no_snapshots_cannot_restore () =
  let g = Guard.create () in
  let m = tile 3 3 in
  Guard.stamp g ~key:4 m;
  Alcotest.(check bool) "restore without snapshots" false (Guard.restore g ~key:4 m)

let test_guard_derive () =
  let g = Guard.create () in
  let m = tile 6 6 in
  Guard.stamp g ~key:0 m;
  let stored = Mat.rounded Fp.S_fp16 m in
  Guard.derive g ~from_key:0 ~key:1 ~scalar:Fp.S_fp16 ~task:"publish" stored;
  Guard.verify g ~key:1 ~task:"read" stored;
  (* A corrupted conversion result must be refused — the far side of a
     hop has no snapshot to restore from. *)
  let bad = Mat.copy stored in
  flip_bit bad ~bit:60 ~idx:5;
  Alcotest.check_raises "corrupted hop raises"
    (Guard.Corrupt
       { Guard.key = 2; task = "publish2";
         reason = "conversion fingerprint out of tolerance (to FP16)" })
    (fun () ->
      Guard.derive g ~from_key:0 ~key:2 ~scalar:Fp.S_fp16 ~task:"publish2" bad)

let test_guard_reset_keeps_counters () =
  let g = Guard.create ~snapshots:true () in
  let m = tile 4 4 in
  Guard.stamp g ~key:9 m;
  let before = Guard.stamped g in
  Guard.reset g;
  Alcotest.(check bool) "stamp forgotten" true (Guard.find g ~key:9 = None);
  Alcotest.(check bool) "unstamped again trusted" true (Guard.check g ~key:9 m);
  Alcotest.(check int) "counters survive reset" before (Guard.stamped g)

(* Guarded factorization *)

let spd ~nt ~nb =
  Tiled.init ~n:(nt * nb) ~nb (fun i j ->
    (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))

let test_guarded_factorization_bitwise () =
  (* With faults disabled, the guard must be a pure observer: guarded and
     unguarded factors agree bit for bit, under both transfer strategies. *)
  let nt = 4 and nb = 8 in
  let pmap = Pm.two_level ~nt ~off_diag:Fp.Fp16_32 in
  List.iter
    (fun cmap ->
      let reference = spd ~nt ~nb in
      Chol.factorize ?cmap ~pmap reference;
      let a = spd ~nt ~nb in
      let g = Guard.create ~snapshots:true () in
      Chol.factorize ?cmap ~integrity:g ~pmap a;
      Alcotest.(check (float 0.)) "bitwise identical" 0.
        (Tiled.rel_diff a ~reference);
      Alcotest.(check bool) "guard actually verified" true (Guard.verified g > 0);
      Alcotest.(check int) "nothing detected" 0 (Guard.detected g))
    [ None; Some (Geomix_core.Comm_map.ttc pmap) ]

(* An Algorithm 2 map with every off-diagonal broadcast forced down to
   FP8-E5M2 wherever that narrows the wire — the autotuner's override
   entry point, exercised here so the SDC property also covers FP8
   transfer fingerprints. *)
let fp8_cmap pmap =
  Cm.override (Cm.compute pmap) pmap ~f:(fun i j ->
    if i <> j then Some Fp.S_fp8_e5m2 else None)

let test_fp8_cmap_guard_pure_observer () =
  (* Fault-free, FP8 on the wire: the guard's conversion-tolerant
     fingerprints must accept every E5M2 hop (unit roundoff 2^-3) and the
     guarded run must stay bitwise identical to the unguarded one. *)
  let nt = 4 and nb = 8 in
  let pmap = Pm.two_level ~nt ~off_diag:Fp.Fp16_32 in
  let cmap = fp8_cmap pmap in
  let reference = spd ~nt ~nb in
  Chol.factorize ~cmap ~pmap reference;
  let a = spd ~nt ~nb in
  let g = Guard.create ~snapshots:true () in
  Chol.factorize ~cmap ~integrity:g ~pmap a;
  Alcotest.(check (float 0.)) "bitwise identical" 0. (Tiled.rel_diff a ~reference);
  Alcotest.(check bool) "guard actually verified" true (Guard.verified g > 0);
  Alcotest.(check int) "nothing detected" 0 (Guard.detected g);
  (* And FP8 genuinely changed the wire: the reference differs from a
     factorization under Algorithm 2's own map. *)
  let plain = spd ~nt ~nb in
  Chol.factorize ~pmap plain;
  Alcotest.(check bool) "fp8 transfers perturb the factor" true
    (Tiled.rel_diff plain ~reference > 0.)

(* Acceptance property: across seeds, tile counts and precision maps —
   including FP8-E5M2 transfer overrides — a factorization under silent
   data corruption (plus the ordinary exec faults, so SDC interacts with
   retry/rollback) either recovers to the bitwise fault-free factor with
   detected = recovered, or surfaces Guard.Corrupt — an injected
   corruption never escapes silently. *)
let prop_sdc_never_escapes =
  QCheck.Test.make ~count:60 ~name:"armed SDC never escapes the guard"
    QCheck.(triple (int_range 0 999) (int_range 2 5) (int_range 0 3))
    (fun (seed, nt, which_pmap) ->
      let nb = 8 in
      let pmap =
        match which_pmap with
        | 0 | 3 -> Pm.two_level ~nt ~off_diag:Fp.Fp16_32
        | 1 -> Pm.two_level ~nt ~off_diag:Fp.Bf16_32
        | _ -> Pm.uniform ~nt Fp.Fp32
      in
      let cmap = if which_pmap = 3 then Some (fp8_cmap pmap) else None in
      let reference = spd ~nt ~nb in
      Chol.factorize ?cmap ~pmap reference;
      let a = spd ~nt ~nb in
      let faults =
        Fault.plan ~rate:0.4
          ~kinds:[ Fault.Transient; Fault.Crash_after_write; Fault.Sdc ]
          ~sleep:ignore ~seed ()
      in
      let g = Guard.create ~snapshots:true () in
      match
        Pool.with_pool ~num_workers:0 (fun pool ->
          Chol.factorize ~pool ?cmap ~faults ~retry:(Retry.immediate ())
            ~integrity:g ~pmap a)
      with
      | () ->
        Tiled.rel_diff a ~reference = 0.
        && Guard.detected g = Guard.recovered g
        && Guard.violations g = 0
      | exception Guard.Corrupt _ -> true)

let () =
  Alcotest.run "integrity"
    [
      ( "checksum",
        [
          Alcotest.test_case "exact hash" `Quick test_checksum_exact;
          Alcotest.test_case "conversion tolerance" `Quick
            test_checksum_tolerates_conversion;
          Alcotest.test_case "fp64 hop is exact" `Quick
            test_checksum_fp64_hop_is_exact;
          Alcotest.test_case "non-finite fails" `Quick test_checksum_nonfinite_fails;
        ] );
      ( "guard",
        [
          Alcotest.test_case "stamp/verify/restore" `Quick
            test_guard_stamp_verify_restore;
          Alcotest.test_case "no snapshots, no restore" `Quick
            test_guard_no_snapshots_cannot_restore;
          Alcotest.test_case "derive across conversion" `Quick test_guard_derive;
          Alcotest.test_case "reset keeps counters" `Quick
            test_guard_reset_keeps_counters;
        ] );
      ( "guarded cholesky",
        [
          Alcotest.test_case "fault-free guard is a pure observer" `Quick
            test_guarded_factorization_bitwise;
          Alcotest.test_case "fp8 transfers under guard" `Quick
            test_fp8_cmap_guard_pure_observer;
          qtest prop_sdc_never_escapes;
        ] );
    ]
