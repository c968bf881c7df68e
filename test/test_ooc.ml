(* Out-of-core tile store and driver: codec losslessness, residency and
   eviction order, crash consistency (no torn tile ever escapes the
   committed manifest), disk-fault recovery, and bitwise parity of the
   out-of-core factorization with the in-core one — killed, resumed or
   uninterrupted. *)

module Mat = Geomix_linalg.Mat
module Tiled = Geomix_tile.Tiled
module Fp = Geomix_precision.Fpformat
module Fault = Geomix_fault.Fault
module Metrics = Geomix_obs.Metrics
module Codec = Geomix_ooc.Codec
module Store = Geomix_ooc.Store
module Pm = Geomix_core.Precision_map
module Mp = Geomix_core.Mp_cholesky
module Ooc = Geomix_core.Ooc_cholesky
module Dtd = Geomix_verify.Dtd
module Explore = Geomix_verify.Explore
module Rng = Geomix_util.Rng

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "geomix_ooc_test_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let mat_equal_bits a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  &&
  let ok = ref true in
  for i = 0 to Mat.rows a - 1 do
    for j = 0 to Mat.cols a - 1 do
      if
        Int64.bits_of_float (Mat.get a i j)
        <> Int64.bits_of_float (Mat.get b i j)
      then ok := false
    done
  done;
  !ok

let decay_spd n =
  Mat.init ~rows:n ~cols:n (fun i j ->
    (if i = j then 1.0 else 0.) +. exp (-0.05 *. float_of_int (abs (i - j))))

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_roundtrip_all_scalars () =
  let rng = Rng.create ~seed:7 in
  List.iter
    (fun s ->
      let m =
        Mat.init ~rows:5 ~cols:3 (fun _ _ -> Rng.uniform rng ~lo:(-2.) ~hi:2.)
      in
      let r = Mat.rounded s m in
      let payload = Codec.encode s r in
      Alcotest.(check int)
        (Fp.scalar_name s ^ " payload size")
        (Codec.payload_bytes s ~rows:5 ~cols:3)
        (Bytes.length payload);
      let back = Codec.decode s ~rows:5 ~cols:3 payload in
      Alcotest.(check bool)
        (Fp.scalar_name s ^ " bit-exact round trip")
        true (mat_equal_bits r back))
    Fp.all_scalars

let test_codec_narrowest_lossless () =
  let rng = Rng.create ~seed:11 in
  List.iter
    (fun s ->
      let m =
        Mat.rounded s
          (Mat.init ~rows:4 ~cols:4 (fun _ _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.))
      in
      let chosen = Codec.narrowest m in
      Alcotest.(check bool)
        (Fp.scalar_name s ^ " narrowest no wider than source")
        true
        (Fp.scalar_bytes chosen <= Fp.scalar_bytes s);
      let back =
        Codec.decode chosen ~rows:4 ~cols:4 (Codec.encode chosen m)
      in
      Alcotest.(check bool)
        (Fp.scalar_name s ^ " narrowest round trip exact")
        true (mat_equal_bits m back))
    [ Fp.S_fp8_e4m3; Fp.S_fp16; Fp.S_bf16; Fp.S_fp32; Fp.S_fp64 ]

let test_codec_nan_falls_back_to_fp64 () =
  let m = Mat.init ~rows:2 ~cols:2 (fun i j -> if i = j then nan else 0.5) in
  Alcotest.(check bool) "nan forces fp64" true (Codec.narrowest m = Fp.S_fp64);
  let back = Codec.decode Fp.S_fp64 ~rows:2 ~cols:2 (Codec.encode Fp.S_fp64 m) in
  Alcotest.(check bool) "nan survives" true (Float.is_nan (Mat.get back 0 0))

(* ------------------------------------------------------------------ *)
(* Store residency *)

let const_mat rows cols v = Mat.init ~rows ~cols (fun _ _ -> v)

let test_store_put_acquire_release () =
  with_dir (fun dir ->
    let st = Store.create ~dir () in
    Store.put st 0 (const_mat 4 4 1.5);
    let m = Store.acquire st 0 in
    Alcotest.(check (float 0.)) "value" 1.5 (Mat.get m 2 3);
    Store.release st 0;
    Alcotest.(check bool) "mem" true (Store.mem st 0);
    Alcotest.(check bool) "unknown raises" true
      (try
         ignore (Store.acquire st 9);
         false
       with Not_found -> true))

let test_store_eviction_respects_budget_and_pins () =
  with_dir (fun dir ->
    (* budget of two 4x4 fp64 tiles = 256 B *)
    let st = Store.create ~budget:256 ~dir () in
    Store.put st 0 (const_mat 4 4 1.0);
    Store.put st 1 (const_mat 4 4 2.0);
    Store.put st 2 (const_mat 4 4 3.0);
    Alcotest.(check bool) "within budget" true (Store.resident_bytes st <= 256);
    Alcotest.(check bool) "evicted something" true (Store.evictions st >= 1);
    (* a pinned tile survives arbitrary pressure *)
    let m1 = Store.acquire st 1 in
    Store.put st 3 (const_mat 4 4 4.0);
    Store.put st 4 (const_mat 4 4 5.0);
    Alcotest.(check bool) "pinned stays resident" true (Store.resident st 1);
    Alcotest.(check (float 0.)) "pinned content" 2.0 (Mat.get m1 0 0);
    Store.release st 1;
    (* reload of an evicted tile is bit-exact *)
    let m0 = Store.acquire st 0 in
    Alcotest.(check bool) "reload exact" true
      (mat_equal_bits m0 (const_mat 4 4 1.0));
    Store.release st 0)

let test_store_priority_order () =
  with_dir (fun dir ->
    let st = Store.create ~budget:128 ~dir () in
    (* Priority: key 0 is "needed soonest" (low), key 2 farthest (high). *)
    Store.set_priority st (Some (fun k -> k));
    Store.put st 0 (const_mat 4 4 1.0);
    Store.put st 1 (const_mat 4 4 2.0);
    (* inserting key 2 (farthest next use) must evict it or key 1, never
       key 0 *)
    Store.put st 2 (const_mat 4 4 3.0);
    Alcotest.(check bool) "soonest-needed tile kept" true (Store.resident st 0))

let test_store_spilled_bytes_track_precision () =
  with_dir (fun dir ->
    let st = Store.create ~dir () in
    (* fp16-exact values spill at 2 B/elt, strictly below the 8 B/elt
       FP64-equivalent accounting *)
    Store.put st 0 (Mat.rounded Fp.S_fp16 (const_mat 8 8 0.7));
    Store.flush st;
    Alcotest.(check int) "fp16 spill bytes" (2 * 64) (Store.spilled_bytes st);
    Alcotest.(check int) "fp64-equivalent" (8 * 64) (Store.spilled_bytes_fp64 st);
    Alcotest.(check bool) "per-scalar ledger" true
      (List.mem_assoc Fp.S_fp16 (Store.spilled_by_scalar st)))

(* ------------------------------------------------------------------ *)
(* Checkpoint / recover *)

let test_store_checkpoint_recover_roundtrip () =
  with_dir (fun dir ->
    let st = Store.create ~dir () in
    let v0 = const_mat 3 5 1.25 and v1 = const_mat 4 4 (-2.5) in
    Store.put st 0 (Mat.copy v0);
    Store.put st 1 (Mat.copy v1);
    Store.checkpoint st ~meta:[ ("phase", "seed") ] ~epoch:1 ();
    let st2, r = Store.recover ~dir () in
    Alcotest.(check int) "epoch" 1 r.Store.rec_epoch;
    Alcotest.(check (list int)) "present" [ 0; 1 ] r.Store.present;
    Alcotest.(check (list int)) "quarantined" [] r.Store.quarantined;
    Alcotest.(check (option string))
      "meta" (Some "seed")
      (List.assoc_opt "phase" r.Store.rec_meta);
    let m0 = Store.acquire st2 0 in
    Alcotest.(check bool) "tile 0 exact" true (mat_equal_bits m0 v0);
    Store.release st2 0;
    let m1 = Store.acquire st2 1 in
    Alcotest.(check bool) "tile 1 exact" true (mat_equal_bits m1 v1);
    Store.release st2 1)

let test_store_no_manifest () =
  with_dir (fun dir ->
    Alcotest.(check bool) "raises No_manifest" true
      (try
         ignore (Store.recover ~dir ());
         false
       with Store.Store_error (Store.No_manifest _) -> true))

let test_store_uncommitted_spill_discarded () =
  with_dir (fun dir ->
    let st = Store.create ~dir () in
    Store.put st 0 (const_mat 4 4 1.0);
    Store.checkpoint st ~epoch:1 ();
    (* overwrite and spill but never commit: recover must return the
       committed image, and the orphan record must be gone *)
    Store.put st 0 (const_mat 4 4 9.0);
    Store.flush st;
    let st2, r = Store.recover ~dir () in
    Alcotest.(check (list int)) "present" [ 0 ] r.Store.present;
    let m = Store.acquire st2 0 in
    Alcotest.(check bool) "committed image, not the orphan" true
      (mat_equal_bits m (const_mat 4 4 1.0));
    Store.release st2 0;
    let stray =
      Array.to_list (Sys.readdir dir)
      |> List.filter (fun f ->
             Filename.check_suffix f ".tmp"
             || (String.length f > 5 && String.sub f 0 5 = "tile_"
                && f <> (match Store.keys st2 with _ -> "")
                && not (Filename.check_suffix f ".quarantined")))
    in
    (* exactly one committed record file for key 0 *)
    Alcotest.(check int) "one surviving record" 1 (List.length stray))

let find_record dir key =
  Array.to_list (Sys.readdir dir)
  |> List.find (fun f ->
         let p = Printf.sprintf "tile_%d.v" key in
         String.length f >= String.length p && String.sub f 0 (String.length p) = p
         && not (Filename.check_suffix f ".quarantined"))

let flip_byte path off =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  let i = off mod n in
  Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor 0x40);
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_store_bit_rot_quarantined () =
  with_dir (fun dir ->
    let st = Store.create ~dir () in
    Store.put st 0 (const_mat 4 4 1.0);
    Store.put st 1 (const_mat 4 4 2.0);
    Store.checkpoint st ~epoch:1 ();
    (* rot a payload byte of tile 1's committed record on disk *)
    flip_byte (Filename.concat dir (find_record dir 1)) 60;
    let obs = Metrics.create () in
    let st2, r = Store.recover ~obs ~dir () in
    Alcotest.(check (list int)) "present" [ 0 ] r.Store.present;
    Alcotest.(check (list int)) "quarantined" [ 1 ] r.Store.quarantined;
    Alcotest.(check int) "counter" 1 (Store.quarantined_count st2);
    Alcotest.(check bool) "forensic file kept" true
      (Array.exists
         (fun f -> Filename.check_suffix f ".quarantined")
         (Sys.readdir dir));
    (* the surviving tile still verifies and loads *)
    let m = Store.acquire st2 0 in
    Alcotest.(check bool) "survivor exact" true (mat_equal_bits m (const_mat 4 4 1.0));
    Store.release st2 0)

(* ------------------------------------------------------------------ *)
(* Disk-fault seam: injected ENOSPC / short writes are retried into a
   verified record; injected read bit-flips are re-read clean. *)

let test_store_write_faults_recovered () =
  with_dir (fun dir ->
    let faults = Fault.plan ~seed:5 ~disk_rate:1.0 ~fail_attempts:1 () in
    let st = Store.create ~faults ~max_attempts:3 ~dir () in
    for k = 0 to 5 do
      Store.put st k (const_mat 4 4 (float_of_int k +. 0.5))
    done;
    Store.checkpoint st ~epoch:1 ();
    Alcotest.(check bool) "spill retries happened" true (Store.spill_retries st > 0);
    (* every record verified on a clean reopen *)
    let st2, r = Store.recover ~dir () in
    Alcotest.(check int) "all present" 6 (List.length r.Store.present);
    List.iter
      (fun k ->
        let m = Store.acquire st2 k in
        Alcotest.(check bool)
          (Printf.sprintf "tile %d exact" k)
          true
          (mat_equal_bits m (const_mat 4 4 (float_of_int k +. 0.5)));
        Store.release st2 k)
      r.Store.present)

let test_store_read_faults_recovered () =
  with_dir (fun dir ->
    let st = Store.create ~dir () in
    for k = 0 to 5 do
      Store.put st k (const_mat 4 4 (float_of_int k))
    done;
    Store.checkpoint st ~epoch:1 ();
    (* reopen with first-attempt read bit-flips armed: the checksum
       catches each flip and the bounded re-read converges *)
    let faults = Fault.plan ~seed:9 ~disk_rate:1.0 ~fail_attempts:1 () in
    let st2, r = Store.recover ~faults ~max_attempts:3 ~dir () in
    Alcotest.(check int) "all present" 6 (List.length r.Store.present);
    Alcotest.(check bool) "read retries happened" true (Store.read_retries st2 > 0);
    List.iter
      (fun k ->
        let m = Store.acquire st2 k in
        Alcotest.(check bool)
          (Printf.sprintf "tile %d exact" k)
          true
          (mat_equal_bits m (const_mat 4 4 (float_of_int k)));
        Store.release st2 k)
      r.Store.present)

(* ------------------------------------------------------------------ *)
(* Crash property: under any seeded kill point and any ENOSPC/short-write
   plan, recovery never surfaces a torn tile — every present key carries
   exactly its last-committed image. *)

exception Crash

let crash_property (seed, kill_at, with_faults) =
  with_dir (fun dir ->
    let faults =
      if with_faults then
        Some (Fault.plan ~seed ~disk_rate:0.5 ~fail_attempts:1 ())
      else None
    in
    let st = Store.create ?faults ~budget:512 ~max_attempts:3 ~dir () in
    Store.set_op_hook st (Some (fun op -> if op = kill_at then raise Crash));
    let rng = Rng.create ~seed in
    (* The model: the state of the last *returned* checkpoint, plus — when
       the crash landed inside a checkpoint call, whose manifest rename is
       the atomic commit point — the state that call was committing.
       Recovery must surface exactly one of the two: old or new image,
       never a torn mixture. *)
    let committed = Hashtbl.create 8 in
    let staged = Hashtbl.create 8 in
    let in_ckpt = ref None in
    let snapshot () =
      let s = Hashtbl.copy committed in
      Hashtbl.iter (fun k v -> Hashtbl.replace s k v) staged;
      s
    in
    let epoch = ref 0 in
    (try
       for step = 1 to 12 do
         let key = Rng.int rng 5 in
         let v = const_mat 4 4 (Rng.uniform rng ~lo:0. ~hi:10.) in
         Store.put st key (Mat.copy v);
         Hashtbl.replace staged key v;
         if step mod 3 = 0 then begin
           incr epoch;
           in_ckpt := Some (snapshot ());
           Store.checkpoint st ~epoch:!epoch ();
           Hashtbl.reset committed;
           Hashtbl.iter
             (fun k v -> Hashtbl.replace committed k v)
             (Option.get !in_ckpt);
           in_ckpt := None
         end
       done
     with Crash | Store.Store_error _ -> ());
    let candidates =
      (if Hashtbl.length committed > 0 then [ committed ] else [])
      @ match !in_ckpt with Some s -> [ s ] | None -> []
    in
    let matches (model : (int, Mat.t) Hashtbl.t) (st2, r) =
      r.Store.quarantined = []
      && List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model [])
         = r.Store.present
      && List.for_all
           (fun k ->
             let m = Store.acquire st2 k in
             let ok = mat_equal_bits m (Hashtbl.find model k) in
             Store.release st2 k;
             ok)
           r.Store.present
    in
    match Store.recover ~dir () with
    | exception Store.Store_error (Store.No_manifest _) ->
      (* acceptable only while no checkpoint call ever committed *)
      Hashtbl.length committed = 0
    | st2, r -> List.exists (fun model -> matches model (st2, r)) candidates)

let test_crash_property =
  QCheck.Test.make ~count:60 ~name:"no torn tile escapes the manifest"
    QCheck.(triple (int_bound 1000) (int_range 1 40) bool)
    crash_property

(* ------------------------------------------------------------------ *)
(* Left-looking out-of-core driver: parity, kill/resume, bit-rot. *)

let test_ooc_driver_matches_in_core () =
  with_dir (fun dir ->
    let d = decay_spd 96 in
    let nb = 16 in
    let reference = Tiled.of_dense ~nb d in
    let pmap = Pm.of_tiled ~u_req:1e-4 reference in
    Mp.factorize ~pmap reference;
    let a = Tiled.of_dense ~nb d in
    let st = Store.create ~budget:(4 * 8 * nb * nb) ~dir () in
    Ooc.factorize ~store:st ~pmap a;
    Alcotest.(check (float 0.)) "driver bitwise = DAG run" 0.
      (Tiled.rel_diff a ~reference);
    Alcotest.(check bool) "narrow spills beat fp64 accounting" true
      (Store.spilled_bytes st < Store.spilled_bytes_fp64 st))

let test_ooc_driver_ragged_fp64 () =
  with_dir (fun dir ->
    let d = decay_spd 50 in
    let reference = Tiled.of_dense ~nb:16 d in
    let pmap = Pm.uniform ~nt:4 Fp.Fp64 in
    Mp.factorize ~pmap reference;
    let a = Tiled.of_dense ~nb:16 d in
    let st = Store.create ~dir () in
    Ooc.factorize ~store:st ~pmap a;
    Alcotest.(check (float 0.)) "ragged bitwise" 0. (Tiled.rel_diff a ~reference))

let kill_resume_once ~kill_at ~pmap ~nb d reference =
  with_dir (fun dir ->
    let init () = Tiled.of_dense ~nb d in
    (try
       let st = Store.create ~budget:(4 * 8 * nb * nb) ~dir () in
       Store.set_op_hook st (Some (fun op -> if op = kill_at then raise Crash));
       Ooc.factorize ~store:st ~pmap (init ())
     with Crash -> ());
    let a =
      match Ooc.resume ~dir ~init ~pmap () with
      | _, a, Ooc.Resumed _ -> a
      | _, _, Ooc.Restarted _ ->
        Alcotest.fail "clean kill must not force a restart"
      | exception Store.Store_error (Store.No_manifest _) ->
        (* killed before the first manifest committed: nothing durable
           exists and the documented recovery is a fresh start *)
        let a = init () in
        Ooc.factorize ~store:(Store.create ~dir ()) ~pmap a;
        a
    in
    Alcotest.(check (float 0.))
      (Printf.sprintf "kill@%d resumes bitwise" kill_at)
      0.
      (Tiled.rel_diff a ~reference))

let test_ooc_kill_resume_bitwise () =
  let d = decay_spd 64 in
  let nb = 16 in
  let reference = Tiled.of_dense ~nb d in
  let pmap = Pm.of_tiled ~u_req:1e-6 reference in
  Mp.factorize ~pmap reference;
  (* a spread of seeded kill points: inside the initial checkpoint (no
     manifest yet), mid-run, and near the end *)
  List.iter
    (fun kill_at -> kill_resume_once ~kill_at ~pmap ~nb d reference)
    [ 1; 2; 7; 19; 25; 33; 47; 61 ]

(* After a completed (finalized) run every file in the directory is a
   committed record, so rotting one exercises the quarantine paths
   without kill-point arithmetic. *)
let committed_keys dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter_map (fun f ->
         if String.length f > 5 && String.sub f 0 5 = "tile_" then
           int_of_string_opt
             (List.hd
                (String.split_on_char '.' (String.sub f 5 (String.length f - 5))))
         else None)

let test_ooc_resume_after_ship_rot () =
  let d = decay_spd 64 in
  let nb = 16 in
  let nt = 4 in
  let reference = Tiled.of_dense ~nb d in
  let pmap = Pm.of_tiled ~u_req:1e-4 reference in
  Mp.factorize ~pmap reference;
  with_dir (fun dir ->
    let init () = Tiled.of_dense ~nb d in
    Ooc.factorize ~store:(Store.create ~dir ()) ~pmap (init ());
    let npairs = nt * (nt + 1) / 2 in
    (* rot a committed *broadcast* record on disk *)
    let ship_keys = List.filter (fun k -> k >= npairs) (committed_keys dir) in
    Alcotest.(check bool) "STC broadcast records exist" true (ship_keys <> []);
    let victim = List.hd ship_keys in
    flip_byte (Filename.concat dir (find_record dir victim)) 55;
    let _st, a, outcome = Ooc.resume ~dir ~init ~pmap () in
    (match outcome with
    | Ooc.Resumed { reshipped; _ } ->
      Alcotest.(check bool) "rotted broadcast recomputed" true (reshipped >= 1)
    | Ooc.Restarted _ -> Alcotest.fail "ship rot must not force a restart");
    Alcotest.(check (float 0.)) "rot never changes the factor" 0.
      (Tiled.rel_diff a ~reference))

let test_ooc_resume_after_stored_rot_restarts () =
  let d = decay_spd 64 in
  let nb = 16 in
  let nt = 4 in
  let reference = Tiled.of_dense ~nb d in
  let pmap = Pm.of_tiled ~u_req:1e-6 reference in
  Mp.factorize ~pmap reference;
  with_dir (fun dir ->
    let init () = Tiled.of_dense ~nb d in
    Ooc.factorize ~store:(Store.create ~dir ()) ~pmap (init ());
    (* rot a committed *stored* record: the factor prefix is untrusted
       and resume must restart from the input, never trust the rot *)
    let npairs = nt * (nt + 1) / 2 in
    let stored_key =
      List.hd (List.filter (fun k -> k < npairs) (committed_keys dir))
    in
    flip_byte (Filename.concat dir (find_record dir stored_key)) 50;
    let _st, a, outcome = Ooc.resume ~dir ~init ~pmap () in
    (match outcome with
    | Ooc.Restarted { quarantined } ->
      Alcotest.(check bool) "quarantine names the rotted key" true
        (List.mem stored_key quarantined)
    | Ooc.Resumed _ -> Alcotest.fail "stored rot must force a restart");
    Alcotest.(check (float 0.)) "restart recomputes the exact factor" 0.
      (Tiled.rel_diff a ~reference))

(* ------------------------------------------------------------------ *)
(* Explorer replay: residency hooks through the DTD footprints leave the
   store in a schedule-independent, fully consistent state. *)

let test_explorer_replay_store_consistent () =
  let reference = ref None in
  (* A small superscalar program over 3 data; [body k] runs each task
     that writes datum k. *)
  let program body =
    let g = Dtd.create () in
    for r = 0 to 3 do
      for k = 0 to 2 do
        ignore
          (Dtd.insert g
             ~name:(Printf.sprintf "t%d_%d" r k)
             ~reads:[ (k + 1) mod 3 ] ~writes:[ k ]
             (fun () -> body k))
      done
    done;
    g
  in
  Explore.for_each_seed ~seeds:6
    (Explore.of_dtd (program ignore))
    (fun ~seed order ->
      with_dir (fun dir ->
        let st = Store.create ~budget:64 ~dir () in
        for k = 0 to 2 do
          Store.put st k (const_mat 2 2 (float_of_int k))
        done;
        let g =
          program (fun k ->
              let m = Store.acquire st k in
              Mat.set m 0 0 (Mat.get m 0 0 +. 1.);
              Store.release st ~dirty:true k)
        in
        Explore.run_schedule (Explore.of_dtd g) ~order ~execute:(fun id ->
            Dtd.execute_task g id);
        Store.checkpoint st ~epoch:1 ();
        let st2, r = Store.recover ~dir () in
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d present" seed)
          [ 0; 1; 2 ] r.Store.present;
        let values =
          List.map
            (fun k ->
              let m = Store.acquire st2 k in
              let v = Mat.get m 0 0 in
              Store.release st2 k;
              Int64.bits_of_float v)
            [ 0; 1; 2 ]
        in
        match !reference with
        | None -> reference := Some values
        | Some v ->
          Alcotest.(check (list int64))
            (Printf.sprintf "seed %d schedule-independent" seed)
            v values))

let () =
  Alcotest.run "ooc"
    [
      ( "codec",
        [
          Alcotest.test_case "round trip all scalars" `Quick
            test_codec_roundtrip_all_scalars;
          Alcotest.test_case "narrowest lossless" `Quick
            test_codec_narrowest_lossless;
          Alcotest.test_case "nan falls back to fp64" `Quick
            test_codec_nan_falls_back_to_fp64;
        ] );
      ( "residency",
        [
          Alcotest.test_case "put/acquire/release" `Quick
            test_store_put_acquire_release;
          Alcotest.test_case "eviction respects budget and pins" `Quick
            test_store_eviction_respects_budget_and_pins;
          Alcotest.test_case "priority order" `Quick test_store_priority_order;
          Alcotest.test_case "spilled bytes track precision" `Quick
            test_store_spilled_bytes_track_precision;
        ] );
      ( "durability",
        [
          Alcotest.test_case "checkpoint/recover round trip" `Quick
            test_store_checkpoint_recover_roundtrip;
          Alcotest.test_case "no manifest" `Quick test_store_no_manifest;
          Alcotest.test_case "uncommitted spill discarded" `Quick
            test_store_uncommitted_spill_discarded;
          Alcotest.test_case "bit rot quarantined" `Quick
            test_store_bit_rot_quarantined;
        ] );
      ( "fault-seam",
        [
          Alcotest.test_case "write faults recovered" `Quick
            test_store_write_faults_recovered;
          Alcotest.test_case "read faults recovered" `Quick
            test_store_read_faults_recovered;
        ] );
      ( "crash",
        [ QCheck_alcotest.to_alcotest test_crash_property ] );
      ( "cholesky",
        [
          Alcotest.test_case "driver matches in-core" `Quick
            test_ooc_driver_matches_in_core;
          Alcotest.test_case "driver ragged fp64" `Quick
            test_ooc_driver_ragged_fp64;
          Alcotest.test_case "kill/resume bitwise" `Quick
            test_ooc_kill_resume_bitwise;
          Alcotest.test_case "ship rot recomputed on resume" `Quick
            test_ooc_resume_after_ship_rot;
          Alcotest.test_case "stored rot forces exact restart" `Quick
            test_ooc_resume_after_stored_rot_restarts;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "replayed schedules leave consistent store" `Quick
            test_explorer_replay_store_consistent;
        ] );
    ]
