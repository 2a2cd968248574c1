(** RLVM: recoverable memory implemented over logged virtual memory
    (Section 2.5).

    No [set_range] calls are needed: the recoverable segment is a logged
    region, so every store inside a transaction is recorded automatically
    by the logger hardware. The transaction identifier is written to a
    special logged location whenever it changes, which lets the library
    attribute log records to transactions.

    In-memory transaction semantics use the deferred-copy machinery: the
    last-committed state is the working segment's deferred-copy source, so
    abort is [reset_deferred_copy] and commit folds the transaction's log
    records into the committed image (CULT) while also forcing redo
    records to the same RAM-disk write-ahead log RVM uses — commit and
    truncation costs are unchanged by LVM, exactly as the paper reports. *)

type t

exception No_transaction
exception Transaction_open

(** Creation-time configuration, shared with [Lvm_fams] (see
    {!Durable.Config} for the fields); override {!Durable.Config.default}
    with the functional-update syntax:

    {[
      let r = Rlvm.make { Rlvm.Config.default with group = 4 } k sp ~size
    ]} *)
module Config = Durable.Config

val make : Config.t -> Lvm_vm.Kernel.t -> Lvm_vm.Address_space.t ->
  size:int -> t
(** Map a recoverable segment of [size] usable bytes. One extra word is
    reserved past [size] for the transaction-identifier cell. The log
    segment is provisioned with [Config.log_pages] pages, managed by
    [Lvm_log], and may be extended under backpressure up to
    [Config.max_log_pages]. [size] is validated against the log
    provision: if a single worst-case transaction (one record per word,
    plus the transaction-cell writes) cannot fit, a typed
    [Lvm_vm.Error.Log_capacity] is raised at creation rather than
    records being silently absorbed at run time.

    [Config.group > 1] enables group commit: the RAM-disk WAL is forced
    once per [group] commits instead of on every commit, amortizing the
    force cost; a crash between forces loses the unforced commits (they
    roll back cleanly — recovery replays to the last fully-forced
    batch). Raises [Out_of_range] for [group < 1]. *)

val kernel : t -> Lvm_vm.Kernel.t
val base : t -> int
val size : t -> int
val disk : t -> Ramdisk.t
val log_segment : t -> Lvm_vm.Segment.t

val log : t -> Lvm_log.t
(** The lifecycle handle over {!log_segment} (extent states, stats). *)

val in_txn : t -> bool

val last_txn_id : t -> int
(** The most recently begun transaction's id (0 before any). Ids are
    assigned at {!begin_txn}, strictly monotone, and {e never} reset by
    {!recover} — a dead uncommitted WAL transaction can never collide
    with a future id, which is what lets a log-tailing consumer key
    per-transaction state by id across crashes. *)

val group : t -> int

val pending_commits : t -> int
(** Commits enqueued but not yet forced (always 0 with [group = 1]). *)

val flush_commits : t -> unit
(** Force the WAL now if any commits are pending (group commit only). *)

val begin_txn : t -> unit
(** One logged write of the transaction id to the special cell. *)

val read_word : t -> off:int -> int

val write_word : t -> off:int -> int -> unit
(** A plain logged store — no annotation, no old-value copy. *)

val commit : ?pace:(unit -> unit) -> t -> unit
(** Fold the transaction into the committed image, force its redo records
    to the RAM-disk WAL and truncate the LVM log.

    [pace] (default: no-op) is called at the commit's internal stage
    boundaries — before the WAL build and again after the force, before
    the CULT's timed accesses. A multi-CPU driver (see
    [Lvm_store.Workload]) yields to its scheduler there: the force is a
    single large compute charge, and without the yield the timed
    accesses that follow it would reach the shared bus far ahead of the
    other CPUs' clocks, which the bus model would misprice as
    contention. [pace] must leave the kernel on the same CPU it was
    called on (re-establish it before returning if it switches).
    @raise Lvm_vm.Error.Lvm_error [Log_exhausted] if the log segment fell
    into default-page absorption during the transaction — redo records
    were lost, so the transaction cannot be made durable. Abort instead. *)

val abort : t -> unit

val recover : t -> Ramdisk.recovery
(** Crash recovery: the in-memory working and committed segments are
    lost; scan the RAM disk's WAL (detecting and truncating any torn
    tail), replay committed transactions onto the image, and reload both
    segments from it. Idempotent: committed effects are durable,
    uncommitted effects invisible. Returns the scan/replay report. *)

val crash_and_recover : t -> unit
(** [recover], report discarded. *)
