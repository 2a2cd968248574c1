(** High-performance output through logging (Section 2.6).

    A program sets the segment containing its state to be logged; a
    separate process interprets the log to produce output or a visual
    display, offloading the application entirely. The indexed log mode
    yields a bare stream of data values (streamed device output); the
    direct-mapped mode writes each value at the same offset in the log
    page as in the data page (mapped I/O without read-back support). *)

type t

val create_indexed :
  Lvm_vm.Kernel.t -> Lvm_vm.Address_space.t -> size:int ->
  log_pages:int -> t
(** A logged output region in indexed mode. *)

val create_direct :
  Lvm_vm.Kernel.t -> Lvm_vm.Address_space.t -> size:int -> t
(** A logged output region in direct-mapped mode (the log segment mirrors
    the data segment page for page). *)

val emit : t -> int -> unit
(** Producer: write the next value into the output region (indexed mode
    streams it; direct-mapped mode updates the mirror at the cursor). *)

val emit_at : t -> off:int -> int -> unit
(** Producer: write a value at a chosen offset (direct-mapped use). *)

val consume : t -> int list
(** Consumer process: values streamed since the last [consume] (indexed
    mode only; the consumed prefix is discarded). *)

val mirror_word : t -> off:int -> int
(** Consumer view of a direct-mapped output device at [off]. *)

(** {1 The tool-output envelope}

    Every JSON document the command-line tools emit ([lvmctl --metrics],
    the [--json] reports of [crashsweep], [logstats], [store], [fams]
    and [repl], the [BENCH_*.json] blobs) is wrapped in one versioned
    envelope so downstream tooling parses a single shape:

    {v {"schema_version": 1, "kind": "<kind>", ...fields} v}

    Without [--json] the same field list is rendered by {!print}. *)
module Envelope : sig
  val schema_version : int
  (** Currently [1]; bumped on any incompatible field change. *)

  (** A minimal JSON tree — no external dependency. [Raw] embeds an
      already-rendered JSON fragment verbatim (e.g. an
      [Lvm_obs.Sink.blob_json] blob). *)
  type json =
    | Null
    | Bool of bool
    | Int of int
    | Float of float  (** rendered with four decimals *)
    | String of string
    | List of json list
    | Obj of (string * json) list
    | Raw of string

  val render : kind:string -> (string * json) list -> string
  (** One-line JSON object: the envelope header followed by [fields]. *)

  val emit : kind:string -> Format.formatter -> (string * json) list -> unit
  (** [render] followed by a newline on the formatter. *)

  val print : Format.formatter -> (string * json) list -> unit
  (** Human rendering of the same fields: one [name value] line per
      field. Nested objects flatten to dotted names ([log.extents 4]),
      strings print bare, every other value as its JSON text. *)
end
