(** A sharded, recoverable transactional store over RLVM.

    The keyspace is the dense integer range [0, keys); key [i] hashes
    to bucket [i mod buckets] (where [buckets = shards *
    buckets_per_shard]) and a routing table maps each bucket to its
    owning shard — initially [bucket mod shards], which makes the
    initial placement exactly the classic [key mod shards]. Each shard
    is an independent {!Lvm_rvm.Rlvm} instance with its own LVM log
    extent ring, RAM-disk write-ahead log and group-commit batcher,
    spanning the whole keyspace so a key's segment offset never depends
    on its owner. The machine boots one worker CPU per shard; a
    transaction's work is charged to the CPUs of the shards it touches,
    so disjoint transactions scale across shards.

    Transactions confined to one shard commit through that shard's WAL
    exactly as a plain RLVM transaction. Cross-shard transactions run a
    two-phase commit driven through the per-shard WALs plus a
    coordinator decision log (its own RAM disk): phase 1 opens a
    transaction on every participant and applies its writes; the
    decision point is the forced append of an intent record — the
    complete redo image of the transaction — to the coordinator log;
    phase 2 commits each participant and flushes its batcher, then a
    done marker retires the intent. The coordinator image holds one
    intent slot per shard, so several cross-shard transactions (on
    disjoint shard sets) may be between decision and retirement at
    once without clobbering each other's intents. Crash recovery
    ({!recover}) first recovers every shard, then scans every
    coordinator slot: each decided but not retired transaction is
    rolled forward by re-applying its intent writes as fresh committed
    transactions (absolute values, so the redo is idempotent); an
    intent that never became durable — torn or never appended — leaves
    every participant rolled back. Either way each transaction is
    all-or-nothing.

    {2 Hot-shard survival}

    Three mechanisms added for skewed and bursty workloads:

    - {b Shard moves} ({!move_begin} .. {!move_retire}): hand a set of
      buckets from one shard to another through a crash-safe
      three-phase protocol — a forced split intent, an incremental
      resumable copy (writes to moved keys keep landing on the old
      owner and are tracked in a dirty set), a drain that re-copies the
      dirty set while new moved-key transactions are refused with the
      typed [Moved] result, and finally one forced coordinator
      transaction that atomically flips the moved buckets' route words.
      A crash before the cutover recovers by abandoning the move; a
      crash after it recovers to the new route. Either way every key
      has exactly one owner.
    - {b Admission control}: an optional per-shard token bucket
      ([admission_rate] tokens per thousand shard-CPU cycles, burst
      [admission_burst]) gates the front door and sheds with the typed
      [Shed] result before overload can wedge the log-room
      backpressure path.
    - {b Load signals}: per-bucket committed-write counters
      ({!bucket_write_counts}) feed the {!Splitter}'s split/merge
      policy.

    Backpressure rides the typed {!Lvm_vm.Error.Log_exhausted} path: a
    transaction whose redo records cannot be made durable is cleanly
    aborted and reported as [Overloaded] instead of raising, so the
    driver (see {!Workload}) can requeue it. *)

type t

(** Store configuration; override {!Config.default} with the
    functional-update syntax:

    {[
      let st = Store.create { Store.Config.default with shards = 4 }
    ]} *)
module Config : sig
  type t = {
    shards : int;  (** Independent RLVM shards, one worker CPU each. *)
    keys : int;  (** Dense keyspace size; key [i] hashes to bucket
                     [i mod buckets]. *)
    group : int;  (** Per-shard group-commit batch size. *)
    log_pages : int;  (** Per-shard LVM log provision, pages. *)
    max_log_pages : int option;
        (** Per-shard backpressure ceiling; [None] means
            [2 * log_pages]. *)
    max_txn_writes : int;
        (** Largest transaction accepted (bounds the coordinator's
            intent record). *)
    compute : int;
        (** Application compute cycles charged per transaction on the
            CPUs of the shards it touches — the work the shards
            parallelize. *)
    frames : int;  (** Physical memory frames for the machine. *)
    admission_rate : float;
        (** Token-bucket admission: tokens granted per thousand
            shard-CPU cycles. [0.] (the default) disables the gate. *)
    admission_burst : int;
        (** Token-bucket capacity (and initial fill). *)
    obs : Lvm_obs.Ctx.t option;
        (** Observability context to share (default: a fresh one). *)
  }

  val default : t
  (** [{ shards = 4; keys = 1024; group = 1; log_pages = 32;
        max_log_pages = None; max_txn_writes = 32; compute = 400;
        frames = 4096; admission_rate = 0.; admission_burst = 8;
        obs = None }]. *)
end

val buckets_per_shard : int
(** Routing granularity, 8: the keyspace hashes into
    [shards * buckets_per_shard] buckets, the unit a shard move hands
    over. *)

(** Why a transaction or read was not executed: the store speaks
    {!Lvm.Lvm_error.t} end to end. [Overloaded] means the shard's log
    could not make the transaction durable (typed [Log_exhausted]
    underneath, cleanly aborted, retryable); [Shed] is the token-bucket
    front door; [Moved] is a draining shard handoff (requeue);
    [Snapshot_unavailable] is an MVCC read outside the retained
    version-history window. The per-module [error] type and its
    [to_error] injection are gone — callers match [Lvm.Lvm_error.t]
    directly. *)

val create : Config.t -> t
(** Boot a machine with [Config.shards] CPUs and one RLVM shard per
    CPU, plus the coordinator decision log. Raises
    [Lvm_vm.Error.Lvm_error] ([Out_of_range]) on a non-positive shard,
    key or compute count, and [Log_capacity] if the keyspace cannot
    fit a shard's log provision. *)

val kernel : t -> Lvm_vm.Kernel.t
val config : t -> Config.t

(** {2 Routing} *)

val buckets : t -> int
(** [shards * buckets_per_shard]. *)

val bucket_of_key : t -> int -> int
(** [key mod buckets]; raises nothing (validation happens in {!exec}). *)

val shard_of_key : t -> int -> int
(** The key's current owner under the routing table. Initially
    [key mod shards]; shard moves change it. *)

val owner_of_bucket : t -> int -> int

val default_owner : t -> int -> int
(** [bucket mod shards] — the owner before any moves. *)

val route_table : t -> int array
(** A copy of the bucket->shard routing table. *)

val shard_buckets : t -> int -> int list
(** The buckets currently routed to a shard, ascending. *)

val shard : t -> int -> Lvm_rvm.Rlvm.t
(** The shard's underlying RLVM instance (tests and the crash sweep). *)

val read : t -> int -> (int, Lvm.Lvm_error.t) result
(** Read one key's committed value. With no MVCC view attached (the
    default), this is the worker-path read: charged to the owning
    shard's CPU, contending with its commit path. Once a view is
    attached (first {!Snapshot.acquire}), it becomes a latest-snapshot
    read — acquire at the current cut, read, release — served without
    touching a shard worker. [Error (Invalid_key _)] outside
    [0, keys). *)

(** {2 Load signals} *)

val bucket_write_counts : t -> int array
(** Committed writes per bucket since creation (or the last
    {!recover}) — the splitter's skew signal. *)

(** {2 Shard moves (split / merge)} *)

val move_begin : t -> from_:int -> to_:int -> int list -> unit
(** Start moving the listed buckets (all currently owned by [from_])
    to [to_]: forces the split intent and enters the copy phase. At
    most one move may be active. Raises [Out_of_range] on an active
    move, bad shards, or a bucket not owned by [from_]. *)

val move_copy_step : t -> batch:int -> int
(** Copy up to [batch] moved keys to the target as one committed
    target-shard transaction, advancing the resumable cursor; returns
    the number of moved keys still uncopied. Raises [Log_exhausted]
    (after aborting cleanly, cursor unmoved) if the target's log
    cannot absorb the batch — back off and retry. *)

val move_enter_drain : t -> unit
(** Stop accepting transactions on moved keys (they get [Moved] and
    are requeued by the driver) so the dirty set stops growing. *)

val move_drain : t -> unit
(** Finish the copy: the uncopied tail plus every dirtied key,
    re-read from the source. After this the target holds every moved
    key's latest committed value. *)

val move_cutover : t -> unit
(** The decision point: one forced coordinator transaction atomically
    rewrites the moved buckets' route words and advances the intent
    state. Consults the {!Lvm_fault.Fault.Split_cutover} fault site
    just before forcing — the canonical split-protocol crash window.
    Raises [Out_of_range] if the copy is incomplete. *)

val move_retire : t -> unit
(** Clear the (already durable) cutover intent; unforced — a lost
    clear just makes recovery re-retire. Ends the move. *)

val move_abort : t -> unit
(** Cancel a move before its cutover: ownership never changed, the
    target's partial copy is unreachable garbage. *)

val move : t -> from_:int -> to_:int -> ?batch:int -> int list -> unit
(** The whole lifecycle in one synchronous call (tests, lvmctl):
    begin, copy to completion, drain, cut over, retire. *)

val active_move : t -> (int * int) option
(** [(from_, to_)] of the move in progress, if any. *)

val move_draining : t -> bool

val move_remaining : t -> int
(** Moved keys the copy cursor has not reached yet (0 if no move). *)

val move_dirty_count : t -> int
(** Moved keys written since the copy started and not yet re-copied. *)

val blocked_by_move : t -> (int * int) list -> (int * int) option
(** [(key, new_owner)] of the first write a draining move would refuse
    with [Moved], or [None]. Drivers consult this before claiming
    shards so a queued transaction that hit the handoff window
    requeues instead of spinning. *)

(** {2 Execution} *)

val exec :
  ?pace:(cpu:int -> unit) ->
  ?detach:(shard:int -> (pace:(cpu:int -> unit) -> unit) -> unit) ->
  t -> writes:(int * int) list -> (unit, Lvm.Lvm_error.t) result
(** Execute one transaction writing [(key, value)] pairs. All keys on
    one shard: a local RLVM transaction on that shard's CPU. Keys on
    several shards: a two-phase commit — the transaction is durable
    (all of it) once the coordinator intent is forced, and never
    partially. [Error] means the transaction left no trace.

    [pace ~cpu] is called between the transaction's operations (before
    each write, around each commit stage), with [cpu] the CPU the next
    operation will run on. The {!Workload} driver suspends the
    transaction there and yields to its scheduler, so concurrent
    transactions interleave at operation granularity — the grain the
    shared-bus timing model prices correctly — using [cpu]'s clock as
    the scheduling key. The store re-establishes its own CPU binding
    after every call, so [pace] may switch CPUs freely. Default: no-op.

    [detach ~shard f] hands a non-home participant's phase-2 commit to
    the driver once the decision is durable: [f ~pace] commits that
    participant's slice (and, on the last participant, retires the
    intent), pacing on [shard]'s CPU. A driver runs it as the shard
    worker's own work item so the home worker moves on immediately —
    presumed-commit 2PC with asynchronous acknowledgements. The shard
    stays claimed until [f] completes. Default: run [f] inline, which
    makes [exec] fully synchronous.

    Two in-flight transactions must never touch the same shard: a
    driver that paces concurrent transactions has to hold each one off
    until every shard it writes is free — including shards whose
    detached phase-2 is still running (see {!Workload}'s per-shard
    admission). *)

val flush : t -> unit
(** Force every shard's pending group-commit batch. *)

(** {2 Snapshot reads (MVCC)}

    The redesigned read surface (see [docs/MVCC.md]): multi-version
    snapshots derived from the per-shard WALs by an {!Lvm_mvcc.View}
    that rides along with the store. Every committed transaction is
    stamped with a global commit timestamp (cross-shard transactions
    carry one timestamp on every participant); a snapshot is a
    GVT-style consistent cut — the minimum of the per-shard applied
    frontiers — so it always equals some committed prefix, with 2PC
    transactions wholly visible or wholly invisible. Reads on an
    acquired snapshot are lock-free and wait-free, served from any CPU
    without touching a shard worker, and remain valid across concurrent
    shard split/merge (snapshots pin pre-cutover routing). *)

val last_ts : t -> int
(** The most recently allocated commit timestamp (0 before any commit)
    — an upper bound for {!Snapshot.as_of}. *)

val mvcc_attached : t -> bool
(** Whether the MVCC view is attached (first {!Snapshot.acquire} does
    it; until then {!read} uses the worker path). *)

module Snapshot : sig
  type store = t

  type t
  (** An acquired snapshot: an immutable timestamp plus the routing in
      effect at that timestamp. *)

  val acquire : store -> (t, Lvm.Lvm_error.t) result
  (** Snapshot at the current consistent cut. The first call attaches
      the MVCC view (flushing the WAL batches); it requires quiescence —
      [Error (Snapshot_unavailable _)] if a cross-shard transaction is
      mid-2PC at attach time (later acquires never fail). Never blocks
      writers. *)

  val as_of : store -> ts:int -> (t, Lvm.Lvm_error.t) result
  (** Time-travel snapshot at exactly [ts], replayed from the retained
      version history (1024 commit timestamps behind the cut; live
      snapshots always pin their own history); pins the routing that
      was in effect at [ts]. [Error (Snapshot_unavailable _)] outside
      the readable window. *)

  val read : t -> int -> (int, Lvm.Lvm_error.t) result
  (** Wait-free versioned read of one key. [Error (Invalid_key _)]
      outside [0, keys); [Error (Snapshot_unavailable _)] on a released
      or recovery-invalidated snapshot. *)

  val release : t -> unit
  (** Allow version history behind this snapshot to be pruned. *)

  val ts : t -> int
end

(** {2 Crash recovery} *)

(** What recovery did about an in-flight shard move. *)
type split_recovery =
  | Split_aborted of { from_ : int; to_ : int }
      (** The crash hit before the cutover became durable: the move is
          abandoned, the route unchanged. *)
  | Split_completed of { from_ : int; to_ : int }
      (** The cutover was durable: the new route is live; recovery
          just retired the intent. *)

(** What {!recover} found. *)
type recovery = {
  shard_reports : Lvm_rvm.Ramdisk.recovery array;
  coordinator : Lvm_rvm.Ramdisk.recovery;
  redone : (int * int) list;
      (** [(gid, writes)] of every in-doubt cross-shard transaction
          that was rolled forward, in ascending gid order. *)
  split : split_recovery option;
}

val recover : t -> recovery
(** Crash recovery: recover every shard from its WAL, resolve any
    in-flight shard move (abandon before cutover, retire after), load
    the durable routing table, then scan every slot of the coordinator
    decision log and roll each decided-but-unretired cross-shard
    transaction forward (ascending gid order) under that route.
    Idempotent. *)

val recovery_to_string : recovery -> string
(** Deterministic one-line summary (crash-sweep traces). *)
