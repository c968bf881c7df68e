(** Per-request trace spans: the attribution context of the live
    telemetry layer.

    The serve path creates one span per sampled request and threads it
    down through the cache, the pool job, the DTD interpreter and the
    tile-Cholesky kernel hooks; every RAW-edge transfer, task execution
    and retry along the way lands in the originating request's
    accumulators.  The resulting {!summary} is the per-request analogue
    of the paper's aggregate motion accounting: bytes shipped under the
    synchronization-reducing conversion (STC) versus the FP64-equivalent
    baseline, split by transfer precision, next to task/retry counts and
    queue/busy time.

    Spans are allocation-light — one record, one mutex, integer adds —
    and safe to update from worker domains concurrently with the request
    thread.  A call site that receives no span pays only an option
    branch. *)

type t

val create : request_id:string -> t
(** A fresh root span under a process-unique generated trace id. *)

val child : t -> request_id:string -> t
(** A child span sharing the parent's trace id, parented to it — used for
    sub-work fanned out on behalf of a request (e.g. Monte-Carlo
    replicate waves). *)

(** {1 Recording} *)

val note_transfer : ?prec:string -> t -> bytes:int -> fp64_bytes:int -> unit
(** One RAW-edge transfer: [bytes] as actually shipped, [fp64_bytes] the
    FP64-equivalent footprint of the same payload.  [?prec] attributes
    the bytes to a transfer-precision bucket (a
    {!Geomix_precision.Fpformat.scalar} name on the serve path). *)

val note_task : t -> unit
val note_retry : t -> unit

val note_exec : t -> queue_s:float -> run_s:float -> unit
(** Accumulate one task's queue wait and run time (from the pool's
    per-item timestamps). *)

(** {1 Summaries} *)

type summary = {
  s_trace_id : string;
  s_request_id : string;
  s_span_id : int;
  s_parent : int option;
  s_bytes_stc : int;
  s_bytes_fp64 : int;
  s_by_precision : (string * int) list;  (** bytes by precision name, sorted *)
  s_edges : int;       (** RAW-edge transfers attributed *)
  s_tasks : int;
  s_retries : int;
  s_queue_s : float;
  s_busy_s : float;
}

val summary : t -> summary
(** A consistent snapshot of the accumulators (taken under the span
    lock). *)

val fields : t -> (string * Jsonlite.t) list
(** [trace]/[request]/[span] identity fields for stamping bus events, in
    {!Events} payload shape. *)

val summary_to_json : summary -> Jsonlite.t
val summary_of_json : Jsonlite.t -> (summary, string) result
