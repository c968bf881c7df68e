(** Deterministic, seeded fault injection for the execution stack.

    A {!t} is a {e plan}: a pure function from [(site, task name, attempt)]
    to a fault decision, derived by hashing the triple together with the
    plan's seed.  No global state and no OS scheduler enters the decision,
    so a chaos run is replayable bit-for-bit from its seed alone — the same
    tasks fault, in the same way, under any schedule and any worker count.
    The DAG executor ({!Geomix_parallel.Dag_exec}, site ["exec"]) and the
    numeric layer ({!Geomix_core.Mp_cholesky}) accept a plan through an
    optional [?faults] argument.

    Three execution-level fault kinds, applied by {!wrap} around a task
    body, plus a numeric one ({!pivot_failure}) consumed by the
    mixed-precision Cholesky:

    - {!Transient}: the attempt raises {!Injected} {e before} the body
      runs — a task that died without side effects;
    - {!Crash_after_write}: the body runs to completion and {e then}
      {!Injected} is raised — a worker that crashed after applying its
      writes but before reporting completion.  Re-executing such a task
      without restoring its written footprint double-applies the work
      (fatal for accumulation kernels such as SYRK/GEMM), which is exactly
      what the snapshot/restore machinery of the supervised retry exists
      to prevent;
    - {!Stall}: the attempt is delayed by the plan's stall duration before
      the body runs — a slow worker, not an error;
    - {!Sdc}: silent data corruption — {e not} injected by {!wrap}, because
      an SDC by definition raises nothing.  A plan listing [Sdc] answers
      {!sdc_decide} instead, and the data-plane layer that owns the tiles
      ({!Geomix_core.Mp_cholesky}'s publish path, driven by
      [geomix chaos --sdc]) applies the returned corruption to the payload
      it just produced.  Detection is then entirely the integrity layer's
      job ({!Geomix_integrity.Guard}). *)

type kind = Transient | Crash_after_write | Stall | Sdc

type sdc =
  | Bitflip of { bit : int; lane : int }
      (** flip bit [bit] (44–62: high-order mantissa or exponent of the
          binary64 image) of element [lane mod n] of the payload *)
  | Tile_swap of { lane : int }
      (** replace the payload with another tile of the same shape — a
          misrouted message; [lane] selects the impostor *)

type disk_op = Dwrite | Dread
(** Which side of the store's syscall seam a {!disk_decide} query guards. *)

type disk =
  | Short_write of { frac : float }
      (** the spill image is truncated at [frac] of its bytes before the
          write "succeeds" — a torn write surviving to the atomic-rename
          seam.  The store's checksum header must catch it on read-back. *)
  | Enospc
      (** the write raises [ENOSPC] after creating the temp file — a full
          disk mid-spill. *)
  | Read_bit_flip of { bit : int; lane : int }
      (** on-disk bit rot: flip bit [bit mod 8] of byte [lane mod size] of
          the payload as it is read back. *)

exception Injected of { task : string; attempt : int; kind : kind }
(** The exception raised by injected [Transient] / [Crash_after_write]
    faults.  Registered with a human-readable printer. *)

type t

val plan :
  ?obs:Geomix_obs.Metrics.t ->
  ?rate:float ->
  ?kinds:kind list ->
  ?pivot_rate:float ->
  ?disk_rate:float ->
  ?stall:float ->
  ?sleep:(float -> unit) ->
  ?fail_attempts:int ->
  ?only:(string -> bool) ->
  seed:int ->
  unit ->
  t
(** [plan ~seed ()] builds a fault plan.

    - [rate] (default [0.]): probability that a given [(site, task,
      attempt)] triple faults under {!wrap}; [1.] faults every eligible
      attempt.
    - [kinds] (default [[Transient]]): the fault kinds injected by
      {!wrap}; when several are given the kind is itself chosen by hash.
      [Sdc] is special: it never fires from {!wrap} (listing it does not
      dilute the hash choice among the execution kinds) and instead arms
      {!sdc_decide}.
    - [pivot_rate] (default [0.]): probability that {!pivot_failure}
      answers [true] — forced low-precision pivot failures, consumed by
      {!Geomix_core.Mp_cholesky}.
    - [disk_rate] (default [0.]): probability that {!disk_decide} grants a
      disk fault to a given [(op, path, attempt)] — consumed by the
      out-of-core tile store's syscall seam ({!Geomix_ooc.Store}).
    - [stall] (default [1e-3] s) and [sleep] (default [Unix.sleepf]): the
      duration and clock of [Stall] faults; pass a virtual sleep in tests.
    - [fail_attempts] (default [1]): attempts [<= fail_attempts] are
      eligible for injection.  The default makes every fault transient in
      the recovery sense — the first retry of a task is guaranteed clean —
      so bounded-attempt supervision always converges.  Raise it (with
      [rate = 1.]) to test give-up paths.
    - [only] (default: everything): task-name filter selecting the
      eligible tasks, e.g. [(fun n -> String.length n > 0 && n.[0] = 'G')]
      to fault only GEMMs.

    When built with [?obs], every granted injection is narrated on the
    registry's event stream at Warn (component ["fault"]): [inject] with
    [site]/[task]/[attempt]/[kind] fields, and [pivot] with
    [task]/[attempt].

    @raise Invalid_argument on rates outside [0, 1], a negative stall, a
    non-positive [fail_attempts] or an empty [kinds] list. *)

val seed : t -> int

val decide : t -> site:string -> task:string -> attempt:int -> kind option
(** The pure decision function: [Some kind] when this attempt of this task
    faults at this site.  Purely a hash of [(seed, site, task, attempt)] —
    no internal state advances, so executors at different sites draw
    independent, individually replayable decisions. *)

val wrap : t -> site:string -> task:string -> attempt:int -> (unit -> unit) -> unit
(** Run a task body under the plan: applies {!decide} and injects the
    chosen fault ([Transient] raises before the body, [Crash_after_write]
    after it, [Stall] sleeps then runs it).  Counts every injection. *)

val pivot_failure : t -> task:string -> attempt:int -> bool
(** Whether a forced pivot failure fires for this task/attempt (decided at
    the dedicated ["pivot"] site under [pivot_rate]).  Counts when
    [true]. *)

val sdc_decide : t -> task:string -> attempt:int -> sdc option
(** Whether this task's published payload is silently corrupted, and how
    (decided at the dedicated ["sdc"] site under [rate]; [None] unless the
    plan lists [Sdc]).  Like every decision, a pure hash of the plan seed
    and [(site, task, attempt)] — the same corruptions strike the same
    payloads on every replay.  Counts (as kind [Sdc]) and narrates on the
    bus when [Some]. *)

val disk_decide : t -> op:disk_op -> path:string -> attempt:int -> disk option
(** Whether this disk operation faults, and how (decided at the dedicated
    ["disk:write"] / ["disk:read"] site under [disk_rate]; [path] plays
    the task role in the hash so each spill file draws independently).
    Write ops draw {!Short_write} or {!Enospc}; read ops draw
    {!Read_bit_flip}.  Attempts above [fail_attempts] never fault, so the
    store's bounded rewrite/re-read retry always converges.  Counts and
    narrates on the event stream when [Some]. *)

(** {1 Injection accounting}

    Monotonic counters over the plan's lifetime (atomic — {!wrap} is
    called from worker domains).  When the plan was built with [?obs],
    the same counts are mirrored into the registry as [fault.injected],
    [fault.transient], [fault.crashes], [fault.stalls], [fault.sdc] and
    [fault.pivots]. *)

val injected : t -> int
(** Total faults injected by {!wrap}, {!sdc_decide} and {!disk_decide}
    (all kinds). *)

val pivots : t -> int
(** Forced pivot failures granted by {!pivot_failure}. *)

val by_kind : t -> (kind * int) list
(** Injection count per execution-level kind, in declaration order. *)

val kind_name : kind -> string
