(** RAM-disk backing store for recoverable memory.

    Holds the persistent image of a recoverable segment plus a serialized
    write-ahead log of redo records. The TPC-A measurements in the paper
    use a RAM disk to hold the log (Table 3), so "disk" operations here
    are charged as driver overhead plus per-word memory copies rather
    than I/O latencies; the charges follow the paper's RVM record sizes
    (value bytes + 12, 8 per commit) independent of the physical
    serialization.

    On disk each record is little-endian words — magic ["WAL1"], kind
    (0 data / 1 commit / 2 snapshot boundary / 3 encoded redo), transaction
    id, image offset, payload length,
    an FNV-1a checksum over (kind, txn, off, len, payload) — followed by
    the payload. Recovery fail-stops at the first record whose header or
    checksum does not parse, so a torn or corrupted tail is detected and
    truncated rather than replayed. This module is the only reader of
    the format: consumers walk records with {!wal_fold}, decode their
    redo with {!redo} and find record boundaries with {!record_end}.

    Crash semantics for testing: a crash discards nothing here — the RAM
    disk {e is} the durable store — while the in-memory recoverable
    segment is considered lost; {!recover} reconstructs the durable state
    as of the last committed transaction.

    Fault injection: when the owning machine has a fault plan installed
    ({!Lvm_machine.Machine.set_fault_plan}), {!wal_append} consults the
    [Ramdisk_write] site — [Crash] dies before any byte is durable,
    [Torn_write] appends a prefix of the serialized record and dies,
    [Failed_write] silently loses the record, [Bit_flip] corrupts one bit
    of the just-written record — and {!wal_force} consults
    [Ramdisk_force]. *)

type t

type entry =
  | Data of { txn : int; off : int; bytes : Bytes.t }
      (** Redo record: new value of [bytes] at image offset [off]. *)
  | Commit of { txn : int }
  | Snapshot of { snap : int }
      (** Failure-atomic snapshot boundary (kind 2): commits every [Data]
          record carrying [snap] as its transaction id. A snapshot whose
          boundary never reached the disk is torn — its data records are
          never applied, and recovery truncates back to the last intact
          boundary exactly as it does for an uncommitted transaction. *)
  | Encoded of { txn : int; payload : Bytes.t }
      (** Compact redo (kind 3): the payload is a
          {!Lvm_machine.Log_record.Codec} V1 stream (version header plus
          run/delta/raw records) whose record addresses are image byte
          offsets — a whole transaction's redo in one WAL record. Commits
          exactly like [Data] (gated on kind 1/2 markers); old logs
          without kind 3 records recover unchanged, and charged bytes
          follow the encoded payload size — the WAL-side bandwidth diet. *)

val create : Lvm_vm.Kernel.t -> size:int -> t
(** An all-zero image of [size] bytes. *)

val size : t -> int

val image_read : t -> off:int -> len:int -> Bytes.t
(** Untimed image read (used at mapping and recovery time). *)

val redo :
  entry -> commit:(int -> unit) ->
  write:(txn:int -> off:int -> Bytes.t -> unit) -> unit
(** The redo content of one record. A [Commit] (or the [Snapshot]
    boundary of its snapshot id) calls [commit txn]; a [Data] record
    calls [write] once with its bytes, an [Encoded] one once per
    decoded non-pre-image record, in order. [write ~txn ~off bytes]
    gives the new value of image bytes [off .. off + length bytes - 1]
    under transaction [txn]. *)

val wal_append : t -> entry -> unit
(** Serialize and append a redo or commit record, charging driver
    overhead and the copy at the cost model's record size. *)

val wal_force : t -> unit
(** Force the log: the fixed commit-synchronization cost. Marks every
    appended byte durable and bumps the ["rvm.wal_forces"] counter. *)

val set_volatile_tail : t -> bool -> unit
(** Group-commit crash semantics: when on, bytes appended since the last
    {!wal_force} are {e not} durable — {!recover} and {!recovered_image}
    discard them, replaying only to the last fully-forced batch. Off by
    default, preserving the seed's every-append-durable behavior. *)

val forced_bytes : t -> int
(** Physical log bytes covered by the last force. *)

val wal_bytes : t -> int
(** Cost-model bytes of live log (the paper's record sizes). *)

val log_bytes : t -> int
(** Physical bytes of serialized log, torn tail included. *)

val durable_bytes : t -> int
(** Physical log bytes a crash would preserve: [log_bytes] with the
    default every-append-durable semantics, clamped to {!forced_bytes}
    when {!set_volatile_tail} is on (group commit). *)

val wal_fold :
  t -> off:int -> init:'a -> f:('a -> off:int -> entry -> 'a) -> 'a * int
(** Untimed incremental walk for log-tailing consumers (the MVCC
    view): parse whole intact records starting at byte offset [off],
    never reading past {!durable_bytes}, and stop silently at the first
    byte that does not parse — a half-appended or unforced tail is "not
    yet", not an error. Returns the accumulator and the offset of the
    first unconsumed byte, the resume point for the next call. [off]
    must be a record boundary previously returned by [wal_fold] (or 0);
    after a {!truncate} or {!recover} rebuilt the log, stale offsets are
    invalid — resync via {!set_on_truncate}. *)

val should_truncate : t -> bool
(** The WAL has grown past the truncation threshold. *)

val truncate : t -> unit
(** Apply all committed entries to the image and clear the log, charging
    truncation costs. Uncommitted entries are preserved (there is at most
    one open transaction). *)

val recovered_image : t -> Bytes.t
(** The image with every {e committed} intact WAL record applied — what
    recovery after a crash reconstructs, without repairing the log.
    Untimed (recovery time is not part of any reproduced measurement). *)

type recovery = {
  scanned : int;  (** Intact records parsed before the scan stopped. *)
  committed : int;  (** Committed transactions found. *)
  replayed : int;  (** Data records applied to the image. *)
  truncated_bytes : int;  (** Torn/corrupt tail bytes discarded. *)
  torn : string option;
      (** Why the scan fail-stopped ("short header", "bad magic", "short
          payload", "checksum mismatch", "bad record kind"), if it did. *)
}

val recover : t -> Bytes.t * recovery
(** Crash recovery: scan the log, detect and truncate any torn tail
    (tracing [Wal_torn]), replay committed records onto a copy of the
    image (absolute values, so replay is idempotent) and trace a
    [Recovery] event. Returns the recovered image and the report. The
    log is physically rewritten to its intact prefix, so recovery is
    itself idempotent. *)

val recovery_to_string : recovery -> string

val entry_count : t -> int
(** Intact records currently in the log. *)

(** {1 Log shipping}

    The serialized WAL byte stream doubles as the replication stream
    (see [Lvm_repl]): a primary ships whole records to replicas, which
    append them verbatim with {!log_append_raw} and recover committed
    state through the ordinary {!recover} path. All of these are
    untimed — the transport simulation keeps its own clock. *)

val log_read : t -> off:int -> len:int -> Bytes.t
(** Raw serialized log bytes, for shipping. *)

val record_end : t -> off:int -> int option
(** The offset just past the intact record that starts at byte [off],
    or [None] when no whole record parses there (the end of the log, a
    torn or corrupted record). Shippers cut frames at these boundaries. *)

val log_append_raw : t -> Bytes.t -> unit
(** Append bytes received from a peer. The payload must be whole
    serialized records; they count into {!entry_count}/{!wal_bytes} and
    are durable on arrival ({!forced_bytes} advances with them). Only
    records that parse, checksum included, are charged into
    {!wal_bytes}. *)

val load_state : t -> image:Bytes.t -> log:Bytes.t -> unit
(** Full-state resync: replace the image and the log wholesale (a
    replica that fell behind a recycled stream, or a freshly promoted
    primary folding its log into the image). [image] must be exactly
    {!size} bytes; [log] must be whole serialized records. *)

val set_truncate_gate : t -> (unit -> bool) option -> unit
(** Install a low-water gate consulted by {!should_truncate}: while the
    gate returns [false], the WAL is never recycled — the replication
    layer's "never recycle bytes an attached replica hasn't acked"
    rule. [None] (the default) restores unconditional truncation. *)

val set_on_truncate : t -> (removed:int -> unit) option -> unit
(** Observe every {!truncate} with the count of physical log bytes it
    consumed, so a shipping layer can maintain cumulative logical
    stream offsets across recycling. *)
