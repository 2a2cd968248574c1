(** Workload driver for the sharded store: closed- or open-loop,
    uniform or skewed, with optional dynamic shard splitting.

    Generates a seeded transaction mix, queues each transaction on its
    home shard, and drives one worker task per shard CPU with a
    deterministic clock-ordered scheduler, so disjoint shards make
    progress in parallel. Each in-flight transaction is an
    effect-handler coroutine suspended at {!Store.exec}'s [pace]
    points: every scheduler step runs one store operation on the CPU
    whose clock is lowest, so bus traffic arrives in timestamp order —
    the shared-bus model's contract — and measured contention is
    genuine. Per-shard admission keeps two transactions from ever
    sharing a shard: a worker whose next transaction needs a shard a
    cross-shard transaction is holding spins (a small compute charge —
    the 2PC blocking cost) until it frees up.

    A cross-shard transaction's detached phase-2 commits (see
    {!Store.exec}'s [detach]) are queued as high-priority work items on
    each participant shard's own worker: once the decision is durable
    the home worker moves on, and the participants apply the commit in
    parallel — the shard claim travels with the work item and is
    released when it completes.

    {2 Skew, bursts and splits}

    - [dist] picks the key distribution: [Uniform] (the classic
      seeded mix, unchanged draw-for-draw) or [Zipfian] (every key
      drawn from an exact Zipf CDF over the ranks, mapped owner-major:
      the hottest {!Store.buckets_per_shard} ranks land on distinct
      buckets of shard 0, the next batch on shard 1, and so on, so the
      hot ranks pile onto shard 0 while staying splittable).
    - [arrival] picks the loop: [Closed] (a worker starts the next
      transaction the moment the previous finishes) or [Open]
      (exponential inter-arrival gaps with periodic bursts; the driver
      releases arrivals by simulated clock and [queue_cap] drops
      arrivals whose home queue is full).
    - [split] enables the {!Splitter}: every [check_every] commits the
      driver asks for advice and, on a [Split]/[Merge], runs the
      store's move lifecycle incrementally between transactions —
      [batch]-key copy steps whenever both endpoint shards are free, a
      drain, then the atomic cutover. Transactions that hit a draining
      key are requeued (counted in [moved]) and re-routed under the
      new table once the cutover commits.

    A transaction the store reports [Overloaded] is requeued, up to
    [retries] times. Exhausting the retry budget counts in [failed] —
    never in [shed], which only counts the token-bucket gate's typed
    [Shed] refusals. *)

(** An exact Zipf(theta) sampler over ranks [0, n), deterministic from
    the caller's {!Lvm_fault.Splitmix} stream. Rank 0 is the hottest.
    The table costs O(n) to build, once per (n, theta): equal parameters
    share one table. A draw costs O(1) expected: a guide table indexed
    by [floor (u * n)] gives a rank the answer cannot be below, and a
    forward scan of the CDF from there finds it. *)
module Zipf : sig
  type t

  val create : n:int -> theta:float -> t
  (** Raises [Out_of_range] on [n < 1] or [theta < 0]; [theta = 0] is
      the uniform distribution. Returns the table already built for the
      same [n] and [theta], if any. *)

  val n : t -> int
  val theta : t -> float

  val pmf : t -> int -> float
  (** The exact probability of a rank — the theory curve property
      tests compare empirical frequencies against. *)

  val cdf : t -> int -> float
  (** The probability of ranks [0..r]: the table a draw searches. *)

  val rank : t -> float -> int
  (** The rank a unit draw [u] in \[0, 1\] maps to: the smallest rank
      whose CDF exceeds [u], else [n - 1]. *)

  val rank_by_search : t -> float -> int
  (** The same answer by binary search over the CDF: the reference
      {!rank} must equal. *)

  val sample : t -> Lvm_fault.Splitmix.t -> int
  (** [rank] of one {!Lvm_fault.Splitmix.unit_float} draw. *)
end

type dist = Uniform | Zipfian of { theta : float }

type arrival =
  | Closed
  | Open of {
      mean_gap : int;  (** Mean exponential inter-arrival gap, cycles. *)
      burst_every : int;  (** Period, in arrivals, of the spikes. *)
      burst_len : int;  (** Arrivals per spike. *)
      burst_gap : int;  (** Mean gap inside a spike. *)
    }

type split_spec = {
  check_every : int;  (** Commits between {!Splitter.advise} calls. *)
  batch : int;  (** Keys per incremental copy step. *)
  max_moves : int;  (** Split/merge budget for the run. *)
  advisor : Splitter.Config.t;
      (** Thresholds for the {!Splitter} the driver builds — lower
          [imbalance] splits more eagerly, [merge_below = 0.] pins
          displaced buckets for the whole run. *)
}

val default_split : split_spec
(** [{ check_every = 32; batch = 32; max_moves = 8;
      advisor = Splitter.Config.default }]. *)

(** How read operations are served (see [docs/MVCC.md]):
    - [Worker] — a read is scheduled like a transaction: it claims its
      owning shard and the shard worker's CPU executes it. The
      pre-MVCC baseline.
    - [Snapshot] — reads drain through [readers] virtual reader tasks
      with their own clocks, each reading an MVCC snapshot acquired
      from the store's log-derived view: no shard CPU, no claim, no
      admission. Readers re-acquire every 64 reads and are throttled
      to the machine wall clock while writes are in flight, so the
      interleaving is honest. Requires nothing of the caller — the
      driver attaches the view on entry. *)
type read_mode = Worker | Snapshot

type spec = {
  txns : int;  (** Operations to generate (writes and reads). *)
  cross_pct : int;  (** Percentage touching two shards (0–100);
                        [Uniform] only. *)
  writes_per_txn : int;
  seed : int;  (** Splitmix seed; same seed, same run. *)
  retries : int;  (** Requeue budget per [Overloaded] transaction. *)
  dist : dist;
  arrival : arrival;
  queue_cap : int option;
      (** Open-loop front door: drop an arrival whose home queue
          already holds this many transactions. *)
  split : split_spec option;  (** [Some _] enables dynamic splitting. *)
  read_pct : int;
      (** Percentage of the [txns] operations that are single-key
          reads, drawn from [dist]. [0] (the default) generates the
          historical pure-write stream draw-for-draw. *)
  read_mode : read_mode;  (** How those reads are served. *)
  readers : int;  (** Virtual reader tasks ([Snapshot] mode only). *)
}

val default : spec
(** [{ txns = 400; cross_pct = 20; writes_per_txn = 4; seed = 7;
      retries = 2; dist = Uniform; arrival = Closed; queue_cap = None;
      split = None; read_pct = 0; read_mode = Worker; readers = 1 }]
    — exactly the pre-split driver's behavior. *)

type shard_stat = {
  txns : int;  (** Transactions this shard was home for. *)
  cycles : int;  (** Cycles its CPU spent over the run. *)
}

type result = {
  executed : int;  (** Write transactions committed. *)
  reads : int;  (** Reads served (either mode). *)
  cross : int;
  shed : int;
      (** Token-bucket [Shed] refusals. *)
  failed : int;
      (** Transactions whose retry budget ran out — reported
          distinctly, never as success or shed. *)
  requeued : int;
  moved : int;
      (** Requeues caused by a shard move's handoff window ([Moved]). *)
  dropped : int;  (** Open-loop arrivals dropped by [queue_cap]. *)
  splits : int;  (** Shard splits the driver completed. *)
  merges : int;  (** Merges (displaced buckets sent home) completed. *)
  wall_cycles : int;  (** Wall-clock cycles of the whole run: the
                          latest clock delta over shard CPUs and
                          virtual readers. *)
  cycles_per_txn : float;  (** [wall_cycles / executed] — the
                               throughput figure shards improve. *)
  per_shard : shard_stat array;
}

val run : Store.t -> spec -> result
(** Generate, enqueue and execute the whole mix; deterministic for a
    given store configuration and spec. Raises [Lvm_vm.Error.Lvm_error]
    before running anything: [Out_of_range] for [txns < 1], [cross_pct]
    or [read_pct] outside 0–100, [writes_per_txn < 1], [retries < 0],
    [readers < 1] or [queue_cap < 1], and [Invalid] for a [queue_cap]
    under [Closed] arrivals. Raises
    [Invalid { op = "Workload.run"; _ }] when the run can make no more
    progress: a shard move stalls with nothing else to run, or a worker
    waits on a held shard that no live task can release. *)
