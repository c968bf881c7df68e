(** Out-of-core tile Cholesky: a left-looking, checkpointed driver over
    the crash-consistent {!Geomix_ooc.Store}.

    Where {!Mp_cholesky.factorize} keeps every tile resident and runs the
    task DAG asynchronously, this driver streams the factorization column
    by column under a bounded residency budget: step [j] pulls column
    [j]'s tiles through the store, applies all of their trailing updates
    (reading the {e shipped} broadcast forms of earlier columns — under
    STC those live in the store in Algorithm 2's transfer format, so
    spilled bytes track the communication map), factorizes the panel, and
    publishes.  Because each per-tile update chain is applied in the same
    [k]-ascending order the DAG serializes it in, with bit-identical
    operands, the factor is {e bitwise identical} to
    {!Mp_cholesky.factorize} under the same precision map and
    communication map — the property the parity tests pin.

    {b Eviction order.}  The driver installs the I/O-aware static
    priority of the left-looking schedule (the farthest-next-use order of
    arXiv 2410.09819): a broadcast form needed soonest by the current
    column stays resident, a finished factor column is first out the
    door.

    {b Crash consistency.}  After every [checkpoint_every] completed
    columns (and on entry, and at the end) the driver checkpoints the
    store with [completed], [nt], [nb], [n] metadata.  Left-looking steps
    touch only column [j], so every checkpoint is a consistent prefix:
    columns [< completed] hold the final factor, columns [≥ completed]
    the pristine input.  Any spill between checkpoints lands in an
    uncommitted versioned file that {!Geomix_ooc.Store.recover} discards,
    so a crash — at {e any} instruction, including mid-rename — resumes
    from the last checkpoint and completes to the bitwise-identical
    factor.  The terminal upper-triangle scrub is idempotent and
    re-applied by {!resume} when the crash hit the finalization window. *)

open Geomix_tile
module Store = Geomix_ooc.Store

val factorize :
  ?cmap:Comm_map.t ->
  ?checkpoint_every:int ->
  store:Store.t ->
  pmap:Precision_map.t ->
  Tiled.t ->
  unit
(** In-place lower Cholesky of the tiled matrix through [store] (fresh or
    empty; its directory becomes the factorization's durable image).  All
    tiles are adopted into the store up front and an epoch-1 checkpoint
    makes the input durable; on return the matrix holds the store's
    resident images of the factor and the final checkpoint carries
    [finalized = true].  [checkpoint_every] (default 1) is the column
    stride between intermediate checkpoints.
    @raise Geomix_linalg.Blas.Not_positive_definite with the global pivot
    index, as {!Mp_cholesky.factorize}.
    @raise Geomix_ooc.Store.Store_error when the disk seam exhausts its
    retry budget — resume from the directory with {!resume}. *)

type outcome =
  | Resumed of { from_column : int; reshipped : int }
      (** continued from the recovered checkpoint; [reshipped] broadcast
          records were quarantined and recomputed from the stored factor *)
  | Restarted of { quarantined : Store.key list }
      (** a {e stored} tile's record was quarantined — the factor prefix
          itself is untrusted, so the run restarted from [init ()] *)

val resume :
  ?cmap:Comm_map.t ->
  ?checkpoint_every:int ->
  ?obs:Geomix_obs.Metrics.t ->
  ?faults:Geomix_fault.Fault.t ->
  ?budget:int ->
  ?max_attempts:int ->
  dir:string ->
  init:(unit -> Tiled.t) ->
  pmap:Precision_map.t ->
  unit ->
  Store.t * Tiled.t * outcome
(** Recover the store from [dir]'s last committed manifest and complete
    the factorization.  Every surviving record is checksum-verified by
    {!Geomix_ooc.Store.recover}; quarantined {e broadcast} records are
    recomputed from the (verified) stored factor, while a quarantined
    {e stored} record invalidates the prefix and restarts from [init ()]
    — a typed recovery in both cases, never a wrong result.  [init] must
    rebuild the original input matrix (it is also consulted for shape
    validation against the manifest metadata).  Returns the recovered
    store, the factored matrix and how completion was achieved.
    @raise Geomix_ooc.Store.Store_error ([No_manifest]) when [dir] holds
    no committed manifest — nothing durable exists, start with
    {!factorize}. *)
