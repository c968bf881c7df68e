(** Footprint race checker for superscalar (PaRSEC DTD-style) task graphs.

    A DTD program declares, per task, the data it reads and writes; the
    runtime derives a DAG that must order every conflicting pair of tasks
    (RAW, WAR and WAW on any datum).  This module recomputes the
    must-happen-before relation directly from the declared footprints and
    checks that the derived DAG covers it: any conflicting pair left
    unordered is reported as a race, together with a witness — a valid
    schedule of the (buggy) DAG that executes the later-inserted task of
    the pair before the earlier one, i.e. an interleaving the pool is
    allowed to produce that breaks sequential semantics. *)

type kind = Raw | War | Waw

val kind_name : kind -> string

type race = {
  first : int;  (** insertion order: [first < second] *)
  second : int;
  key : int;  (** the datum the pair conflicts on *)
  kind : kind;
  witness : int array;
      (** a valid schedule of the DAG running [second] before [first] *)
}

val check :
  num_tasks:int ->
  footprint:(int -> int list * int list) ->
  successors:(int -> int list) ->
  race list
(** All conflicting-but-unordered pairs of the graph, sorted by
    (first, second).  An empty list means the DAG covers the full
    must-happen-before relation of the footprints. *)

val check_dtd : ?drop:int * int -> Dtd.t -> race list
(** Race-check a DTD graph against its own declared footprints.
    [drop:(src, dst)] removes one derived edge first — the standard way to
    seed a bug and assert the checker catches it. *)

val to_string : ?name:(int -> string) -> race -> string
(** Human-readable one-liner, with task names when [name] is given. *)
