(** Log-derived MVCC snapshot reads (see [docs/MVCC.md]).

    The paper's central bet is that the hardware log captures every
    committed mutation cheaply — so the log, not the shard workers, can
    serve reads. A {!View} tails each shard's RAM-disk WAL into a
    versioned word store keyed by commit timestamp and serves snapshot
    reads at a GVT-style consistent cut: the minimum of the per-shard
    applied frontiers, with 2PC atomicity falling out of the one shared
    timestamp a cross-shard transaction carries on every participant.

    The view is a pure consumer: it owns no clock and allocates no
    timestamps. The store drives it with {!event} stamps ([Commit] after
    every durable commit, [Route] at split/merge cutover, [Reset] after
    crash recovery) and the WAL supplies the write payloads. Reads are
    lock-free and wait-free once a snapshot is acquired — they touch
    only the pinned route array and the version chains, never a shard
    worker CPU. *)

type event =
  | Commit of { shard : int; txn : int; ts : int }
      (** Shard [shard]'s rlvm transaction [txn] committed with global
          timestamp [ts]. A cross-shard transaction emits one stamp per
          participant, all carrying the {e same} [ts] — which is exactly
          what makes it wholly visible or wholly invisible at any cut. *)
  | Route of { ts : int; route : int array }
      (** Split/merge cutover: [route] (bucket -> shard) took effect at
          [ts]. Snapshots below [ts] keep resolving through the previous
          routing (pre-cutover pinning). *)
  | Reset of { ts : int; route : int array }
      (** Crash recovery completed at watermark [ts]: the view rebuilds
          its bases from the recovered images and invalidates every
          outstanding snapshot (reads on them return
          [Snapshot_unavailable]). Fresh snapshots are immediately
          re-derivable. *)

module View : sig
  type t

  type source = {
    shards : int;
    keys : int;
    off_of_key : int -> int;  (** key -> image byte offset (word-aligned) *)
    bucket : int -> int;  (** key -> route bucket *)
    disk : int -> Lvm_rvm.Ramdisk.t;  (** shard -> its WAL disk *)
    watermark : unit -> int;
        (** The store's commit watermark: the highest timestamp [w] such
            that every transaction at or below [w] has been decided —
            [next_ts - 1] with no cross-shard transaction in flight,
            else one below the oldest in-flight timestamp. *)
    route : int array;
    obs : Lvm_obs.Ctx.t;
    history : int;
        (** How many timestamps of version history to retain behind the
            cut for [as_of] time travel (live snapshots always pin their
            own history regardless). *)
  }

  val attach : source -> base_ts:int -> t
  (** Build a view whose per-shard bases are the disks' recovered images
      stamped [base_ts], and start tailing each WAL from its current
      end. The store must be quiescent: WAL batches flushed and no
      cross-shard transaction in flight (otherwise a partially-durable
      transaction would fold into the base below its timestamp).
      Installs each disk's truncation gate and observer
      ({!Lvm_rvm.Ramdisk.set_truncate_gate}/[set_on_truncate]): a WAL
      is recycled only once the view has parsed every byte it holds.
      Known defect (docs/MVCC.md): under the store this gate never
      opens, so an attached shard's WAL is never recycled. *)

  val detach : t -> unit
  (** Uninstall the truncation hooks and invalidate all snapshots. *)

  val event : t -> event -> unit
  val tick : t -> unit
  (** Advance every shard's walk and prune unreachable versions. *)

  val cut : t -> int
  (** The consistent cut: every transaction at or below it is applied on
      every shard, monotone across calls. *)

  val floor : t -> int
  (** Oldest as-of timestamp still readable (older versions have been
      folded into the base images). *)
end

type snapshot

val acquire : View.t -> snapshot
(** Snapshot at the current cut. Never blocks writers and never fails;
    release with {!release} so version history behind it can be pruned. *)

val as_of : View.t -> ts:int -> (snapshot, Lvm.Lvm_error.t) result
(** Time-travel snapshot at exactly [ts], pinning the routing that was
    in effect at [ts]. [Error (Snapshot_unavailable _)] outside
    [[floor, cut]]. *)

val read : snapshot -> key:int -> (int, Lvm.Lvm_error.t) result
(** Wait-free versioned read. [Error (Snapshot_unavailable _)] on a
    released or recovery-invalidated snapshot, [Error (Invalid_key _)]
    out of key range. *)

val release : snapshot -> unit
val snapshot_ts : snapshot -> int
