(** Crash-sweep harness: crash-consistency testing for RLVM.

    Runs a deterministic TPC-A-style transactional workload over RLVM
    many times, each run under a fault plan that kills the machine at a
    different point — a sweep of instruction-stream crash points covering
    the whole run, plus a sweep of torn WAL writes — then recovers and
    checks the atomicity contract against a host-side model:

    - committed transactions are durable;
    - uncommitted writes are invisible;
    - a crash inside commit lands on exactly one side of the atomicity
      boundary (old state or new state, never a mixture);
    - recovery is idempotent (a second recovery reproduces the state);
    - a torn last WAL record is detected and truncated, never replayed.

    The same engine sweeps four more subjects — the sharded store
    ([run ~shards]), FAMS snapshots ({!run_fams}), the shard-move
    protocol ({!run_split}) and replication failover ({!run_repl}) —
    each a workload, a recovery and a checker over one shared schedule
    fold (see docs/FAULTS.md).

    Everything is seeded: two sweeps with the same parameters produce
    byte-identical {!outcome.trace} strings, which the [@crash] CI alias
    checks for every subject. *)

type outcome = {
  points : int;  (** Total runs (crash points + torn-write points). *)
  crashed : int;  (** Runs in which the injected fault fired. *)
  completed : int;  (** Runs that finished the workload unharmed. *)
  torn : int;  (** Recoveries that detected and truncated a torn tail. *)
  failures : string list;  (** Invariant violations; empty = pass. *)
  trace : string;  (** Deterministic one-line-per-run log. *)
}

val run :
  ?seed:int -> ?txns:int -> ?points:int -> ?torn_points:int -> ?cpus:int ->
  ?group:int -> ?shards:int -> unit -> outcome
(** [run ()] sweeps [points] (default 200) evenly-spaced crash cycles
    over a [txns]-transaction workload (default 12), then [torn_points]
    (default 24) torn-write crashes at successive WAL appends with
    varying torn lengths. Each point builds a fresh machine with [cpus]
    processors (default 1; the workload itself runs on CPU 0 — the sweep
    checks that crash consistency holds on a multi-CPU boot too).

    [group] (default 1) enables group commit in the RLVM under test. A
    crash may then roll back commits whose batch was never forced; the
    checker accepts the last fully-forced state for crashed runs. With
    [group = 1] that extra acceptance is unreachable and the trace is
    byte-identical to the ungrouped sweep.

    [shards] (default 1) switches the subject from the single TPC-A
    store to an [Lvm_store] sharded store whose workload mixes
    single-shard and cross-shard (two-phase-commit) transactions with
    disjoint per-transaction key sets. The checker then enforces
    all-or-nothing across shards: a crashed run must recover to the
    committed prefix, plus the in-flight transaction either applied in
    full on every shard it touched or on none — a torn write landing
    between the two phases (e.g. tearing the coordinator's intent
    record) must roll the whole transaction back. [cpus] is ignored
    when [shards > 1]: the store boots one CPU per shard. *)

val run_fams :
  ?seed:int -> ?snaps:int -> ?writes:int -> ?points:int ->
  ?torn_points:int -> ?force_points:int -> ?group:int -> ?regions:int ->
  unit -> outcome
(** Torn-snapshot sweep over the failure-atomic snapshot API
    ([Lvm_fams]): a workload of [snaps] epochs — [writes] plain writes
    per region per epoch, then one region snapshots — swept with
    [points] (default 120) evenly-spaced crash cycles (crashes before,
    inside and after the snapshot's WAL phase), [torn_points] (default
    16) torn WAL writes (tearing data records and boundary records
    alike) and [force_points] (default 8) crashes injected inside the
    boundary's force itself. Each crashed run recovers every region
    (twice — replay must be idempotent) and checks prefix consistency:
    the recovered region equals a registered snapshot boundary no older
    than the last forced one, or the in-flight snapshot image when its
    boundary made it to disk — never a mixture, and never un-snapshotted
    plain writes. [group] (default 1) batches boundary forces; [regions]
    (default 1) maps several independently-snapshotting regions on one
    machine. *)

val run_repl :
  ?seed:int -> ?txns:int -> ?kill_points:int -> ?fault_only:int ->
  ?replicas:int -> ?post_txns:int -> unit -> outcome
(** Replication failover sweep over an [Lvm_repl] cluster. Every
    schedule gets its own seeded transport-fault plan (drop / delay /
    duplicate / reorder at the [Net_frame]/[Net_ack] sites, profile and
    PRNG seed rotating per schedule). [kill_points] (default 84)
    schedules fail-stop the primary a few ticks after transaction [k]
    committed — replication frames still in flight — drain the dead
    window, promote the furthest-ahead standby and check against the
    host-side model:

    - the promoted replica serves exactly the committed-transaction
      prefix its applied watermark covers (the dead primary's
      uncommitted tail is dropped, nothing is half-applied);
    - that prefix includes every transaction the primary had seen the
      winner acknowledge — no acked transaction is ever lost;
    - a second recovery on the promoted node changes nothing
      (idempotence: a re-sent unacked tail re-applies harmlessly);
    - the new primary serves [post_txns] more transactions and every
      surviving standby converges to it under the same faults.

    [fault_only] (default 16) schedules skip the kill and require the
    cluster to converge on the full workload despite the faults. In the
    {!outcome}, [crashed] counts kill schedules, [completed] fault-only
    schedules, and [torn] schedules that needed at least one full-state
    resync. Deterministic: same parameters, byte-identical [trace]. *)

val run_split :
  ?seed:int -> ?points:int -> ?torn_points:int -> ?cutover_points:int ->
  ?shards:int -> unit -> outcome
(** Split-cutover sweep over the sharded store's shard-move protocol.
    The scripted schedule interleaves seeded transactions with a full
    move lifecycle — split half of shard 0's buckets to shard 1
    (forced intent, incremental copy steps with transactions between
    them, a drain whose moved-key write must be refused with [Moved],
    the cutover, a transaction in the cutover-durable-but-unretired
    window, the retire) and then a merge sending the buckets home.
    [points] (default 90) evenly-spaced crash cycles cover the whole
    schedule — intent force, mid-copy, drain, cutover, the
    post-cutover pre-retire window, and the merge — [torn_points]
    (default 8) tear WAL appends (split-intent records included), and
    [cutover_points] (default 2) crash inside the
    {!Lvm_fault.Fault.Split_cutover} site itself (the split's and the
    merge's cutover force). Every crashed run recovers and checks:

    - every key reads its host-model value (a mid-copy crash must not
      expose the target's partial copy);
    - the routing table equals exactly the pre-move or the post-move
      table — never a mixture, so every bucket has one owner;
    - a second recovery reproduces both state and route (idempotence)
      and leaves no move active;
    - the store still commits: probe transactions on a moved and an
      unmoved bucket read back.

    Deterministic: same parameters, byte-identical [trace]. With the
    defaults the sweep runs 100 seeded schedules. *)
