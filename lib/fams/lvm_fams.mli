(** Failure-atomic snapshots over the hardware log (beyond the paper).

    The FAMS pattern (failure-atomic [msync]) lets an application mutate
    a mapped region with {e plain writes} — no transaction bracketing, no
    per-write [set_range] bookkeeping — and make the accumulated
    modification set durable atomically with one call. What a software
    FAMS implements with soft-dirty page tracking and a redo journal,
    this machine already records in hardware: the logger captures every
    store into the region's log segment, and the second-level cache's
    deferred-copy tables track the modified lines. {!snapshot} reads that
    modification set ({!Lvm_vm.Kernel.dirty_spans}), writes it to the
    write-ahead log as redo records sealed by a {e snapshot boundary}
    record, folds it into the committed image, and recycles the hardware
    log's extents for the next epoch.

    Atomicity: the boundary record is the commit marker. Recovery replays
    a snapshot's redo records only when its boundary reached the disk
    intact; a torn snapshot — crash before or during the boundary's
    force — is truncated back to the last durable boundary, idempotently
    (see {!Lvm_rvm.Ramdisk.Snapshot}). With {!Config.group} [> 1],
    boundary forces batch exactly like RLVM group commit: a crash rolls
    back to the last {e forced} boundary.

    Every entry point returns [('a, Lvm.Lvm_error.t) result]; kernel
    errors surface as [Error (Vm _)] — notably
    [Vm (Log_exhausted _)] from {!write_word} as the backpressure
    signal. Injected crash faults are never caught into a result. *)

type t

(** The configuration shared with {!Lvm_rvm.Rlvm}: hardware-log
    provision, backpressure ceiling and snapshot boundaries per WAL
    force (group commit). *)
module Config = Lvm_rvm.Durable.Config

val map :
  Config.t -> Lvm_vm.Kernel.t -> Lvm_vm.Address_space.t -> size:int ->
  (t, Lvm.Lvm_error.t) result
(** Map a logged, snapshottable region of [size] bytes (a positive word
    multiple) at a fresh base address: working segment deferred-copied
    from a committed image, hardware log with an extent ring, RAM-disk
    WAL. The region starts all-zero and logging-enabled. *)

(** {1 Mutation} *)

val read_word : t -> off:int -> (int, Lvm.Lvm_error.t) result

val write_word : t -> off:int -> int -> (unit, Lvm.Lvm_error.t) result
(** A plain store: no transaction needs to be open and no per-write
    bookkeeping is charged — the hardware tracks the modification set.
    Backpressure runs first: if the store's log record cannot be made to
    fit under [max_log_pages], returns [Error (Vm (Log_exhausted _))]
    before issuing the write. *)

(** {1 Snapshots} *)

type report = {
  snap : int;  (** Snapshot id (monotonic from 1). *)
  spans : int;  (** Coalesced dirty spans persisted. *)
  bytes : int;  (** Payload bytes written to the WAL. *)
  log_records : int;  (** Hardware-log records sealed with the epoch. *)
  forced : bool;
      (** The boundary was forced to disk (always true at group 1). *)
  absorbed : bool;
      (** The logger overflowed into the default page during the epoch.
          The snapshot is still exact — redo comes from the dirty-line
          tracking, not the log records — but log-derived diagnostics
          under-count. *)
}

val snapshot : t -> (report, Lvm.Lvm_error.t) result
(** Atomically persist everything written since the previous snapshot
    (or since {!map}): enumerate the dirty spans, append them as WAL redo
    records under a fresh snapshot id, seal them with the boundary
    record, note the commit with the group batcher, fold the spans into
    the committed image, reset the deferred-copy state and recycle the
    hardware log's extents. An empty modification set still writes a
    boundary (an empty snapshot is a valid, durable state). *)

val flush : t -> (unit, Lvm.Lvm_error.t) result
(** Force any unforced snapshot boundaries (group commit tail), then
    truncate the WAL if it is past threshold. *)

val recover : t -> (Lvm_rvm.Ramdisk.recovery, Lvm.Lvm_error.t) result
(** Crash recovery: recover the RAM disk (truncating any torn snapshot
    back to the last durable boundary), reload both images from the
    recovered state, clear the hardware log and re-enable logging.
    Idempotent. Unwritten epochs die; snapshot ids stay monotonic. *)

val report_to_string : report -> string

(** {1 Accessors} *)

val kernel : t -> Lvm_vm.Kernel.t
val base : t -> int
(** Base virtual address of the mapped region. *)

val size : t -> int
val disk : t -> Lvm_rvm.Ramdisk.t
val log : t -> Lvm_log.t
val log_segment : t -> Lvm_vm.Segment.t
val group : t -> int
val pending_snapshots : t -> int
(** Boundaries noted but not yet forced (0 at group 1). *)

val snapshots : t -> int
(** Snapshots taken since {!map} (crashes included). *)
