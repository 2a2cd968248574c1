(** Load-aware split/merge policy for the sharded store.

    The splitter watches {!Store}'s per-bucket committed-write counters
    and the driver's per-shard queue depths, folds them into per-shard
    load EWMAs (published as [store.shard<i>.load] gauges), and advises
    when to move buckets:

    - {b Split}: when the hottest shard's load exceeds [imbalance]
      times the fleet average, peel its hottest buckets off to the
      coldest shard — enough of the round's write traffic to bring
      the hot shard down to the fleet average, but never so much that
      the recipient would rise above it (so the hotspot cannot simply
      relocate), capped at 8 buckets per move and never the shard's
      last bucket.
    - {b Merge}: when the fleet is balanced (hottest under
      [merge_below] times the average) and earlier splits left buckets
      away from their default owners, send one displaced group home,
      shrinking routing entropy.

    Each round's load sample is the shard's bucket-write delta plus 4
    per queued transaction; the EWMA gives it weight 0.5.

    The splitter only advises; the driver (see {!Workload}) owns the
    move lifecycle and runs the copy incrementally between
    transactions. Deterministic: same store history and advise
    cadence, same advice. *)

module Config : sig
  type t = {
    min_delta : int;
        (** Ignore rounds with less total write traffic than this. *)
    imbalance : float;  (** Split when [max_load >= imbalance * avg]. *)
    merge_below : float;
        (** Merge displaced buckets home when
            [max_load <= merge_below * avg]. *)
  }

  val default : t
  (** [{ min_delta = 32; imbalance = 1.6; merge_below = 1.15 }]. *)
end

type advice =
  | Split of { from_ : int; to_ : int; buckets : int list }
  | Merge of { from_ : int; to_ : int; buckets : int list }
  | Steady

type t

val create : ?config:Config.t -> Store.t -> t

val load : t -> int -> float
(** The shard's current load EWMA (as of the last {!advise}). *)

val advise : ?queue_depths:int array -> t -> advice
(** Fold the latest load sample into the EWMAs and advise. Returns
    [Steady] while a move is already active. *)
