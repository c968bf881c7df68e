(** Crash-durability helpers shared by the out-of-core tile store and the
    telemetry snapshotter: the write-temp → fsync → atomic-rename →
    fsync-directory idiom.

    POSIX [rename(2)] atomically replaces the destination, so after a
    crash a reader observes either the old file image or the new one —
    never a torn mixture — provided the new image was fsynced before the
    rename and the directory entry is fsynced after it. *)

val fsync_fd : Unix.file_descr -> unit
(** [fsync(2)] on an open descriptor.  [EINVAL]/[ENOTSUP] (e.g. special
    files in test sandboxes) are swallowed; real I/O errors propagate. *)

val fsync_dir : string -> unit
(** Open the directory read-only and fsync it, making renames and new
    directory entries durable.  Errors from platforms that refuse to
    fsync directories are swallowed. *)

val write_atomic : path:string -> (out_channel -> unit) -> unit
(** [write_atomic ~path f] writes the file image produced by [f] into
    [path ^ ".tmp"], flushes and fsyncs it, atomically renames it over
    [path], and fsyncs the parent directory.  On any exception from [f]
    or the syscalls the temp file is unlinked and the exception
    re-raised; [path] is left untouched. *)

val rename_durable : src:string -> dst:string -> unit
(** Atomic [Sys.rename src dst] followed by an fsync of [dst]'s parent
    directory. *)
