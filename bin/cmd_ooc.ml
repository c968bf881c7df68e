(* geomix ooc: out-of-core tile Cholesky over the crash-consistent spill
   store, with kill/resume crash recovery checked bitwise. *)

open Cmdliner
open Cli
module Tiled = Geomix_tile.Tiled
module Fault = Geomix_fault.Fault
module Chol = Geomix_core.Mp_cholesky
module Ooc = Geomix_core.Ooc_cholesky
module Store = Geomix_ooc.Store

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

(* Only ever delete directories that look like ours: tile records, a
   manifest, or the kill-matrix scratch layout. *)
let reset_store_dir d =
  if Sys.file_exists d then begin
    let ours f =
      f = "MANIFEST.json" || f = "reference"
      || (String.length f >= 5 && String.sub f 0 5 = "tile_")
      || (String.length f >= 5 && String.sub f 0 5 = "kill_")
    in
    if Array.for_all ours (Sys.readdir d) then rm_rf d
    else begin
      Printf.eprintf
        "geomix ooc: %s exists and does not look like a tile store; refusing to delete it\n"
        d;
      exit 2
    end
  end

let report_store st =
  let sp = Store.spilled_bytes st and sp64 = Store.spilled_bytes_fp64 st in
  Printf.printf
    "store: %d spills (%s written, %s FP64-equivalent%s), %d loads (%s re-read), %d evictions, %d checkpoints\n"
    (Store.spills st)
    (fb (float_of_int sp))
    (fb (float_of_int sp64))
    (if sp64 > 0 then
       Printf.sprintf ", %.1f%% saved"
         (100. *. (1. -. (float_of_int sp /. float_of_int sp64)))
     else "")
    (Store.loads st)
    (fb (float_of_int (Store.reread_bytes st)))
    (Store.evictions st) (Store.checkpoints st);
  (match Store.spilled_by_scalar st with
  | [] -> ()
  | split ->
    print_string "  spilled by scalar:";
    List.iter
      (fun (s, b) ->
        Printf.printf "  %s %s" (Fp.scalar_name s) (fb (float_of_int b)))
      split;
    print_newline ());
  if Store.spill_retries st + Store.read_retries st + Store.quarantined_count st > 0
  then
    Printf.printf "  fault seam: %d spill retries, %d read retries, %d quarantined\n"
      (Store.spill_retries st) (Store.read_retries st)
      (Store.quarantined_count st)

let outcome_line = function
  | Ooc.Resumed { from_column; reshipped } ->
    Printf.sprintf "resumed from column %d%s" from_column
      (if reshipped > 0 then
         Printf.sprintf " (%d broadcast records reshipped)" reshipped
       else "")
  | Ooc.Restarted { quarantined } ->
    Printf.sprintf "restarted from the input (%d quarantined: %s)"
      (List.length quarantined)
      (String.concat "," (List.map string_of_int quarantined))

let run seed ntiles config nb budget_tiles every dir resume kill_after
    kill_matrix rot disk_rate format metrics_out verbose =
  let reg = Metrics.create () in
  attach_stderr_of ~verbose reg;
  let n = ntiles * nb in
  let pmap = pmap_of_config ~ntiles config in
  let init () = spd_test_matrix ~n ~nb in
  let budget = budget_tiles * nb * nb * 8 in
  let faults =
    if disk_rate > 0. then Some (Fault.plan ~obs:reg ~disk_rate ~seed ())
    else None
  in
  (* Every mode ends by comparing against the same in-core factorization
     under the same precision map — the contract is bitwise identity. *)
  let reference =
    lazy
      (let r = init () in
       Chol.factorize ~pmap r;
       r)
  in
  let verify name a =
    let diff = Tiled.rel_diff a ~reference:(Lazy.force reference) in
    Printf.printf "%s vs in-core factorization: rel diff %.3e (%s)\n" name diff
      (if diff = 0. then "bitwise identical" else "MISMATCH");
    diff = 0.
  in
  let finishing ok =
    print_metrics ?metrics_out format reg;
    if not ok then exit 1
  in
  let arm_kill st at =
    if at > 0 then
      Store.set_op_hook st
        (Some
           (fun k ->
             if k >= at then begin
               flush Stdlib.stdout;
               Unix.kill (Unix.getpid ()) Sys.sigkill
             end))
  in
  let resume_dir ?obs d =
    match
      Ooc.resume ?obs ?faults ~checkpoint_every:every ~budget ~dir:d ~init
        ~pmap ()
    with
    | st, a, outcome -> (st, a, outcome_line outcome)
    | exception Store.Store_error (Store.No_manifest _) ->
      (* Killed before the first manifest committed: nothing durable
         exists, so a fresh run is the documented recovery. *)
      let st = Store.create ?obs ?faults ~budget ~dir:d () in
      let a = init () in
      Ooc.factorize ~checkpoint_every:every ~store:st ~pmap a;
      (st, a, "no manifest yet; restarted fresh")
  in
  if kill_matrix then begin
    mkdir_p dir;
    let refdir = Filename.concat dir "reference" in
    rm_rf refdir;
    let st = Store.create ~obs:reg ?faults ~budget ~dir:refdir () in
    let a_ref = init () in
    Ooc.factorize ~checkpoint_every:every ~store:st ~pmap a_ref;
    let total = Store.ops st in
    let ok_ref = verify "uninterrupted out-of-core run" a_ref in
    report_store st;
    let points =
      let stride = max 1 (total / 8) in
      let rec up k acc =
        if k >= total then List.rev ((total - 1) :: acc)
        else up (k + stride) (k :: acc)
      in
      List.sort_uniq compare (1 :: up stride [])
    in
    Printf.printf "kill matrix: seed %d, %d disk ops per run, killing at [%s]\n"
      seed total
      (String.concat "; " (List.map string_of_int points));
    let all_ok = ref ok_ref in
    List.iter
      (fun pt ->
        let kdir = Filename.concat dir (Printf.sprintf "kill_%d" pt) in
        rm_rf kdir;
        flush Stdlib.stdout;
        flush Stdlib.stderr;
        match Unix.fork () with
        | 0 ->
          (* Child: run until the op hook SIGKILLs the process at the
             seeded durable transition — a real mid-spill crash. *)
          (try
             let st = Store.create ?faults ~budget ~dir:kdir () in
             arm_kill st pt;
             Ooc.factorize ~checkpoint_every:every ~store:st ~pmap (init ())
           with _ -> ());
          exit 0
        | pid ->
          let _, status = Unix.waitpid [] pid in
          let killed = status = Unix.WSIGNALED Sys.sigkill in
          let _, a, how = resume_dir kdir in
          let diff = Tiled.rel_diff a ~reference:(Lazy.force reference) in
          Printf.printf "  kill@%-4d %s: %s; rel diff %.3e (%s)\n" pt
            (if killed then "killed" else "ran to completion")
            how diff
            (if diff = 0. then "ok" else "MISMATCH");
          if diff <> 0. then all_ok := false)
      points;
    finishing !all_ok
  end
  else if rot then begin
    reset_store_dir dir;
    let st = Store.create ~obs:reg ?faults ~budget ~dir () in
    Ooc.factorize ~checkpoint_every:every ~store:st ~pmap (init ());
    (* Flip one payload byte of a committed record chosen by the seed,
       then resume: the checksum must catch it and the typed recovery
       must end in the exact factor. *)
    let records =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f >= 5
             && String.sub f 0 5 = "tile_"
             && not (Filename.check_suffix f ".quarantined"))
      |> List.sort compare
    in
    let victim = List.nth records (seed mod List.length records) in
    let path = Filename.concat dir victim in
    let len = (Unix.stat path).Unix.st_size in
    let off = min (len - 1) (47 + (seed mod max 1 (len - 47))) in
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
    let b = Bytes.create 1 in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    ignore (Unix.read fd b 0 1);
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    ignore (Unix.write fd b 0 1);
    Unix.close fd;
    Printf.printf "rotted one byte of %s at offset %d\n" victim off;
    let st, a, how = resume_dir ~obs:reg dir in
    Printf.printf "recovery: %s\n" how;
    report_store st;
    finishing (verify "recovered factorization" a)
  end
  else if resume then begin
    let st, a, how = resume_dir ~obs:reg dir in
    Printf.printf "recovery: %s\n" how;
    report_store st;
    finishing (verify "resumed factorization" a)
  end
  else begin
    reset_store_dir dir;
    let st = Store.create ~obs:reg ?faults ~budget ~dir () in
    arm_kill st kill_after;
    let a = init () in
    Printf.printf
      "ooc: NT=%d nb=%d (%s), residency budget %d tiles (%s), store %s, seed %d\n"
      ntiles nb (config_name config) budget_tiles
      (fb (float_of_int budget))
      dir seed;
    Ooc.factorize ~checkpoint_every:every ~store:st ~pmap a;
    report_store st;
    let ok = verify "out-of-core factorization" a in
    (* The headline claim of the paper carried to disk: narrowed spill
       records must cost strictly less than FP64-equivalent accounting
       whenever the map narrows anything. *)
    let ok =
      if config <> `Fp64 && Store.spilled_bytes st >= Store.spilled_bytes_fp64 st
      then begin
        Printf.printf "spilled bytes did not beat FP64-equivalent accounting\n";
        false
      end
      else ok
    in
    finishing ok
  end

let cmd =
  let budget_arg =
    Arg.(
      value & opt int 4
      & info [ "budget-tiles" ]
          ~doc:
            "Residency window in tiles: at most this many binary64 tile \
             images stay in memory; everything else lives in spill records.")
  in
  let every_arg =
    Arg.(
      value & opt positive_int 1
      & info [ "checkpoint-every" ]
          ~doc:"Commit a manifest checkpoint every N completed panel columns.")
  in
  let dir_arg =
    Arg.(
      value
      & opt string (Filename.concat (Filename.get_temp_dir_name ()) "geomix-ooc")
      & info [ "dir" ]
          ~doc:
            "Store directory.  A fresh run recreates it; $(b,--resume) reads \
             the manifest it left behind.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Recover from the manifest in $(b,--dir) instead of starting \
             fresh: verify every surviving record's checksum, quarantine \
             rot, recompute the dirty frontier and verify the finished \
             factor bitwise.")
  in
  let kill_after_arg =
    Arg.(
      value & opt int 0
      & info [ "kill-after" ]
          ~doc:
            "SIGKILL this process at the Nth durable disk transition \
             (temp-written / rename-committed / manifest-committed) — a \
             real crash mid-spill.  Follow with $(b,--resume) in the same \
             $(b,--dir).  0 disarms.")
  in
  let kill_matrix_arg =
    Arg.(
      value & flag
      & info [ "kill-matrix" ]
          ~doc:
            "The crash-recovery gate: run once uninterrupted, then fork a \
             child per seeded kill point that SIGKILLs itself mid-run, \
             resume each orphaned store, and require every recovered \
             factor to be bitwise identical to the reference.")
  in
  let rot_arg =
    Arg.(
      value & flag
      & info [ "rot" ]
          ~doc:
            "After a complete run, flip one payload byte of a committed \
             spill record (chosen by $(b,--seed)) and resume: the checksum \
             must quarantine it and the typed recovery must still end in \
             the exact factor.")
  in
  let disk_rate_arg =
    Arg.(
      value & opt probability 0.
      & info [ "disk-rate" ]
          ~doc:
            "Seeded disk-fault probability per spill/load (short writes, \
             ENOSPC, read bit-flips), absorbed by the store's bounded \
             retries.")
  in
  let exits =
    Cmd.Exit.info 0
      ~doc:
        "the out-of-core (and, under $(b,--kill-matrix) / $(b,--rot) / \
         $(b,--resume), the recovered) factor is bitwise identical to the \
         in-core factorization under the same precision map."
    :: Cmd.Exit.info 1
         ~doc:
           "a recovered factor diverged from the reference, or narrowed \
            spill records failed to beat FP64-equivalent accounting."
    :: Cmd.Exit.info 2
         ~doc:
           "a domain failure: unrecoverable store corruption, an \
            indefinite matrix, or a directory that is not a tile store."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "ooc" ~exits
       ~doc:
         "Out-of-core tile Cholesky over the crash-consistent spill store: \
          factorize under a bounded residency window with precision-narrowed \
          spill records, and verify kill/resume crash recovery bitwise")
    Term.(
      const run $ seed_arg $ nt_arg 6 $ config_arg `Mixed16_32 $ nb_arg 16 $ budget_arg
      $ every_arg $ dir_arg $ resume_arg $ kill_after_arg $ kill_matrix_arg
      $ rot_arg $ disk_rate_arg $ metrics_format_arg
      $ metrics_out_arg
          ~doc:
            "Also write the final metrics snapshot (ooc.* spill, re-read, \
             retry and quarantine counters) as JSON to this file."
      $ verbose_arg)
