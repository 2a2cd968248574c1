(** The 16-byte log record wire format produced by the logger hardware.

    A record holds the data address written, the value written there, the
    size of the write, and a timestamp from the logger's 6.25 MHz counter
    (Section 3.1). Records are DMA'ed into log segment pages back to back,
    earlier writes at lower offsets, so user code reads logs by parsing
    this format straight out of memory. *)

type t = {
  addr : int;  (** Data address written. Physical in the prototype logger;
                   virtual with on-chip logging (Section 4.6). *)
  value : int;  (** Value written (low [8 * size] bits significant). *)
  size : int;  (** Write size in bytes: 1, 2 or 4. *)
  timestamp : int;  (** 6.25 MHz counter value, i.e. CPU cycles / 4. *)
  pre_image : bool;
      (** Section 4.6's optional extension: when the on-chip logger is
          configured to record "the memory data before the write", each
          store emits a flagged pre-image record (carrying the old value)
          immediately before the ordinary record. Pre-images enable
          constant-time reverse execution; every state-reconstruction
          reader must skip them. Encoded as bit 8 of the size word. *)
}

val bytes : int
(** Size of an encoded record (16). *)

val encode_to : Physmem.t -> paddr:int -> t -> unit
(** Store the record at physical address [paddr]. *)

val encode_fields :
  Physmem.t -> paddr:int -> addr:int -> value:int -> size:int ->
  timestamp:int -> pre_image:bool -> unit
(** {!encode_to} of the record with these fields, without building it:
    the logger's per-write path. *)

val decode_from : Physmem.t -> paddr:int -> t
(** Parse the record at physical address [paddr]. *)

val value_offset : int
val flags_offset : int
(** Byte offsets, within an encoded record, of its value word and of its
    flags word; its address word is at offset 0. For a scan that reads
    those words itself instead of building a record per entry. *)

val flags_size : int -> int
val flags_pre_image : int -> bool
(** The [size] and [pre_image] fields packed in a flags word. *)

val encode_bytes : Bytes.t -> pos:int -> t -> unit
val decode_bytes : Bytes.t -> pos:int -> t

val value_bytes : t -> Bytes.t
(** The [size] bytes the record writes, little-endian: the redo payload
    of a write. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 The versioned record codec}

    [V0] is the wire format above: bare 16-byte records back to back,
    exactly what the prototype hardware DMAs. [V1] is a self-framing
    variable-length format built from the same logical records: a tag
    word names each record's kind, runs of sequential word writes share
    one header, and a word-diff against the previous record's cache line
    shrinks to 8 bytes. A V1 stream opens with an 8-byte version record,
    the explicit on-disk tag that keeps old logs recoverable (see
    docs/LOGGING.md, "Record formats"). *)

type version = V0 | V1

val version_to_string : version -> string

module Codec : sig
  val magic : int
  (** Word 1 of the version record ("LVC1"). *)

  val header_bytes : int
  (** Size of the version record a V1 stream opens with (8). *)

  val worst_case_bytes : writes:int -> int
  (** Reservation bound: encoded size of [writes] logical records in the
      worst case, version header and page pads included. *)

  (** One physical record: a lone record, a run of >= 2 sequential word
      writes sharing a timestamp, or a line diff against the previous
      logical record. *)
  type group = G_raw of t | G_run of t list | G_delta of t

  val group_records : group -> t list
  val group_batch : t list -> group list
  (** Greedy grouping; deltas only ever reference the logical record
      immediately before them in the batch. *)

  val group_bytes : group -> int
  val encode_group : group -> Bytes.t
  val encode_version_header : unit -> Bytes.t

  val encode_pad : len:int -> Bytes.t
  (** A pad record of [len] bytes (>= 4, word multiple): skipped by the
      decoder, emitted when the next record would straddle a page. *)

  val encode_stream : t list -> Bytes.t
  (** Version header followed by the encoded batch. *)

  val scan :
    ?prev:t -> Bytes.t -> pos:int -> len:int ->
    f:(off:int -> next:int -> t list -> unit) -> int
  (** Walk a V1 fragment, calling [f] once per physical record with its
      decoded logical records (empty for version and pad records).
      Returns the offset of the first record that does not parse — the
      torn-tail truncation point ([= len] for an intact stream). Never
      raises: short tails, bad kinds and dangling diffs all fail-stop. *)

  val decode_fragment : ?prev:t -> Bytes.t -> pos:int -> len:int -> t list * int
  (** All logical records plus the valid end offset. *)

  val starts_with_header : Bytes.t -> pos:int -> len:int -> bool

  val sniff_version : Bytes.t -> pos:int -> len:int -> version
  (** [V1] iff the stream opens with a version record (tag and magic
      both checked, so a V0 stream is never misread). *)
end
