(** The tile-integrity guard: a registry of {!Checksum.t} stamps keyed by
    tile identity, shared by every producer and consumer boundary of a run.

    Producers {!stamp} (or, across a precision conversion, {!derive}) a
    tile; consumers {!check} or {!verify} it.  A failed check is a detected
    silent data corruption: the caller either recovers — {!restore} from a
    snapshot, or recompute the payload — and calls {!note_recovered}, or
    escalates with {!corrupt}, which raises {!Corrupt}.  {!Corrupt} is
    deliberately {e not} retryable: re-running a task on corrupted inputs
    reproduces the wrong answer, so the supervised-retry layer treats it
    like [Not_positive_definite] and lets it surface to the robust driver.

    All operations are thread-safe (the executor verifies and stamps from
    worker domains).  Counters are monotonic across {!reset}, which clears
    only the stamps — one guard can account an entire multi-round
    escalation run. *)

type violation = { key : int; task : string; reason : string }

exception Corrupt of violation
(** An integrity violation that could not be recovered in place. *)

type t

val create :
  ?obs:Geomix_obs.Metrics.t ->
  ?snapshots:bool ->
  unit -> t
(** [?obs] registers the [integrity.*] counters ([stamped], [verified],
    [sdc_detected], [sdc_recovered], [violations], [hashed_bytes]) and
    narrates [integrity/sdc_detected], [integrity/sdc_recovered] (both
    [Warn]) and [integrity/corrupt] ([Error]) on its event stream.
    [?snapshots] (default [false]) keeps a private copy of every stamped
    tile so {!restore} can repair in place. *)

val snapshots : t -> bool

val stamp : t -> key:int -> Geomix_linalg.Mat.t -> unit
(** Record the tile's exact checksum (and snapshot, if enabled) at [key],
    replacing any previous stamp. *)

val derive :
  t -> from_key:int -> key:int -> scalar:Geomix_precision.Fpformat.scalar ->
  task:string -> Geomix_linalg.Mat.t -> unit
(** Carry a stamp across a precision conversion: verify the tile against
    the stamp at [from_key] with the conversion-tolerant fingerprint for
    [scalar] ({!Checksum.matches_scalar}), then {!stamp} the converted
    bytes at [key].  No stamp at [from_key] degrades to a plain {!stamp}.
    An out-of-tolerance tile raises {!Corrupt} — a conversion hop has no
    local recovery; the producer must republish. *)

val check : t -> key:int -> Geomix_linalg.Mat.t -> bool
(** Exact verification against the stamp at [key]; [true] when no stamp
    exists (unguarded data is trusted). *)

val verify : t -> key:int -> task:string -> Geomix_linalg.Mat.t -> unit
(** {!check}, raising {!Corrupt} (after {!note_detected}) on mismatch. *)

val restore : t -> key:int -> Geomix_linalg.Mat.t -> bool
(** Overwrite the tile with the snapshot taken at the last {!stamp} of
    [key].  [false] when snapshots are off, no stamp exists, or the
    dimensions disagree — the caller must then recover some other way. *)

val note_detected : t -> key:int -> task:string -> unit
(** Count (and narrate on the event stream) one detected corruption.  Called by
    {!verify} on failure; call it directly when a plain {!check} fails and
    recovery is attempted. *)

val note_recovered : t -> key:int -> task:string -> unit
(** Count one corruption repaired in place (restored or recomputed and
    re-verified). *)

val corrupt : t -> key:int -> task:string -> string -> 'a
(** Count an unrecoverable violation and raise {!Corrupt}. *)

val reset : t -> unit
(** Forget all stamps and snapshots; counters are preserved. *)

val find : t -> key:int -> Checksum.t option

(** {1 Counters} (monotonic, thread-safe) *)

val stamped : t -> int
val verified : t -> int
val detected : t -> int
val recovered : t -> int
val violations : t -> int

val hashed_bytes : t -> int
(** Bytes run through the hash/fingerprint by stamps and verifications —
    numerator of the [integrity.verify_overhead_frac] bench metric. *)
