(* Write-temp → fsync → atomic-rename → fsync-directory.  See the .mli
   for the crash-consistency argument. *)

let ignorable = function
  | Unix.EINVAL | Unix.EOPNOTSUPP | Unix.EBADF | Unix.EISDIR | Unix.EACCES ->
    true
  | _ -> false

let fsync_fd fd =
  try Unix.fsync fd with Unix.Unix_error (e, _, _) when ignorable e -> ()

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) when ignorable e -> ()
  | fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> fsync_fd fd)

let rename_durable ~src ~dst =
  Sys.rename src dst;
  fsync_dir (Filename.dirname dst)

let write_atomic ~path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     f oc;
     flush oc;
     fsync_fd (Unix.descr_of_out_channel oc)
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  match Sys.rename tmp path with
  | () -> fsync_dir (Filename.dirname path)
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
