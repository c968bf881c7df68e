(** Run-report document builder.

    [geomix report] assembles one artifact per instrumented run — precision
    composition, data-motion table, occupancy Gantt, critical-path
    attribution, metrics snapshot, recovery counters — and this module is
    the neutral document layer underneath it: ordered sections of markdown
    blocks (paragraphs, GFM tables, fenced code), each optionally carrying
    structured {!Jsonlite} payloads, rendered as Markdown for humans and
    as one JSON object for tooling.  It knows nothing about the numeric
    stack, so any layer (CLI, bench harness, tests) can build reports. *)

type t

val create : title:string -> t

val section : t -> string -> unit
(** Start a new section; subsequent blocks land in it.  Content added
    before the first [section] goes into an implicit preamble. *)

val para : t -> string -> unit
(** A markdown paragraph. *)

val table : t -> headers:string list -> string list list -> unit
(** A GFM pipe table.  Rows shorter than [headers] are padded. *)

val code : t -> string -> unit
(** A fenced code block. *)

val attach : t -> key:string -> Jsonlite.t -> unit
(** Attach structured data to the current section; surfaces under the
    section's ["data"] object in {!to_json} (last write per key wins). *)

val to_markdown : t -> string

val to_json : t -> Jsonlite.t
(** [{ "title"; "sections": [ { "title"; "text"; "data" } ] }] — [text] is
    the section's rendered markdown body, [data] its attachments. *)
