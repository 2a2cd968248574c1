(** Log-shipping replication with hot-standby promotion (beyond the
    paper; see [docs/REPLICATION.md]).

    A primary [Lvm_rvm.Rlvm] machine streams its durable WAL — the
    sealed (forced) prefix plus a bounded window of the active tail —
    to replica machines over a simulated faulty transport. Stream
    positions are cumulative logical offsets that survive WAL
    recycling: each node's base is advanced by
    [Lvm_rvm.Ramdisk.set_on_truncate] whenever its log is compacted.
    Replicas append whole records verbatim and serve committed reads
    through the ordinary recovery path ([Ramdisk.recovered_image]);
    they never touch the primary's commit path.

    Robustness machinery, all deterministic under a seeded
    {!Lvm_fault.Plan}:

    - the transport injects drop / delay / duplicate / reorder faults
      at the [Net_frame] and [Net_ack] sites;
    - the primary retransmits go-back-N from the acked watermark on
      ack-progress timeout, with capped exponential backoff;
    - replicas run a heartbeat failure detector and re-Hello with
      capped exponential backoff when the primary goes quiet;
    - the low-water rule: the primary's WAL truncate gate refuses to
      recycle bytes an attached replica has not acked, and a replica
      silent past [detach_after] is detached so it cannot wedge
      recycling forever (it resyncs on return);
    - {!promote} turns the furthest-ahead live standby into the serving
      primary — folding its received log into its image drops any
      uncommitted tail of the dead primary — and bumps the cluster
      epoch; epoch fencing discards stale in-flight frames and
      divergent or lagging peers are caught up with a full-state
      [Resync] frame.

    All [repl.*] counters and histograms live in the cluster's shared
    {!Lvm_obs.Ctx.t}. *)

module Config : sig
  type t = {
    size : int;  (** Replicated segment bytes; keys are [size / 4]. *)
    log_pages : int;  (** Per-node LVM log provision. *)
    group : int;  (** Primary group-commit batch size. *)
    replicas : int;
    frame_bytes : int;
        (** Soft cap on a Data frame payload; a single larger record
            still ships alone (frames always carry whole records). *)
    tail_bytes : int;
        (** How many unforced active-tail bytes ship ahead of the
            sealed prefix. *)
    latency : int;  (** Transport delivery latency, ticks. *)
    heartbeat_every : int;  (** Primary heartbeat period, ticks. *)
    timeout : int;
        (** Failure-detector and retransmission timeout, ticks. *)
    backoff_cap : int;  (** Maximum backoff multiplier. *)
    detach_after : int;
        (** Primary detaches a replica silent this long (must be at
            least [timeout]). *)
    obs : Lvm_obs.Ctx.t option;
        (** Observability context shared by every node and the
            transport (default: a fresh one). *)
  }

  val default : t
  (** [{ size = 256; log_pages = 8; group = 1; replicas = 2;
        frame_bytes = 512; tail_bytes = 4096; latency = 1;
        heartbeat_every = 4; timeout = 12; backoff_cap = 8;
        detach_after = 96; obs = None }] *)
end

(** Protocol frames (see [docs/REPLICATION.md] for the full rules). *)
module Frame : sig
  type t =
    | Data of { epoch : int; pos : int; payload : Bytes.t; forced : int }
        (** Whole WAL records at logical stream offset [pos]. *)
    | Heartbeat of { epoch : int; stream_end : int; forced : int }
    | Resync of { epoch : int; base : int; image : Bytes.t; log : Bytes.t }
        (** Full-state catch-up: replace image and log, restart the
            stream at [base + length log]. *)
    | Ack of { replica : int; epoch : int; upto : int }
        (** Cumulative: the replica holds every byte below [upto]. *)
    | Hello of { replica : int; epoch : int; from : int }
        (** (Re-)attach request: resume the stream at [from]. *)

  val kind_name : t -> string
end

type t

val create : ?plan:Lvm_fault.Plan.t -> Config.t -> t
(** Boot a cluster: one primary plus [Config.replicas] standbys, every
    peer attached and in sync at stream offset 0. [plan] drives the
    transport's fault sites (also settable later with
    {!set_net_plan}). Raises typed [Lvm_vm.Error.Lvm_error] on invalid
    configuration. *)

val set_net_plan : t -> Lvm_fault.Plan.t option -> unit

val obs : t -> Lvm_obs.Ctx.t
val epoch : t -> int
val now : t -> int

val keys : t -> int
val has_primary : t -> bool

val promoted : t -> int option
(** The replica currently serving as primary, after a failover. *)

val primary_kernel : t -> Lvm_vm.Kernel.t
(** Raises if the primary is dead. *)

val replica_kernel : t -> int -> Lvm_vm.Kernel.t

val exec :
  t -> writes:(int * int) list -> (unit, Lvm.Lvm_error.t) result
(** One transaction on the serving primary: write each [(key, value)]
    and commit. Does not pump the protocol — call {!tick}. *)

val read : t -> int -> int
(** Committed word on the serving primary. *)

val replica_read : t -> int -> int -> int
(** [replica_read t i key]: committed word as replica [i]'s recovery
    path reconstructs it — its answer if it were promoted now. *)

val tick : t -> unit
(** Advance the simulated network one tick: the primary drains acks,
    ships/retransmits/heartbeats, replicas apply delivered frames, run
    their failure detector, and ack. *)

val step : ?ticks:int -> t -> unit

val sync : ?max_ticks:int -> t -> bool
(** Pump {!tick} until every live standby has applied and acked the
    primary's whole stream, or [max_ticks] (default 10000) elapse;
    [true] on convergence. *)

val converged : t -> bool

(** {1 Failure and promotion} *)

val kill_primary : t -> unit
(** Fail-stop the serving primary (the original node, or a previously
    promoted replica). Its in-flight frames stay in the transport and
    are epoch-fenced after the next promotion. *)

val kill_replica : t -> int -> unit
val restart_replica : t -> int -> unit
(** The replica comes back with its disk intact but its volatile
    protocol state (epoch included) gone; it re-Hellos and the primary
    chooses fast catch-up or full resync. *)

type promotion = {
  new_primary : int;
  new_epoch : int;
  applied_bytes : int;  (** Logical stream bytes the winner had applied. *)
  folded_bytes : int;  (** Received log bytes folded into its image. *)
  failover_ticks : int;  (** Ticks from {!kill_primary} to serving. *)
}

val promote : t -> promotion
(** Promote the live standby with the highest applied watermark to
    serving primary: fold its received log into its image (committed
    transactions apply; the dead primary's uncommitted tail is
    dropped), recover its RVM from that state, bump the epoch and
    start fresh peer state for the remaining standbys. Raises if the
    primary is still alive or no live standby exists. *)

(** {1 Watermarks}

    Logical (cumulative) stream offsets, for harnesses and tests. *)

val stream_end : t -> int
(** The serving primary's log end. *)

val replica_applied : t -> int -> int
val replica_acked : t -> int -> int
val replica_alive : t -> int -> bool
val replica_attached : t -> int -> bool
val replica_connected : t -> int -> bool

val rerecover : t -> unit
(** Re-run crash recovery on the serving primary. Committed effects are
    durable and uncommitted ones invisible, so between transactions this
    must be a no-op — the crash sweep's double-recovery check. *)

(** {1 Stats} *)

type replica_stat = {
  rid : int;
  alive : bool;
  connected : bool;  (** Replica-side failure-detector view. *)
  attached : bool;  (** Primary-side: counted by the recycling gate. *)
  applied : int;
  acked : int;
  lag : int;
}

type stats = {
  s_epoch : int;
  s_now : int;
  s_primary : string;  (** ["p0"], ["r<i>"] after a failover, ["dead"]. *)
  s_stream_end : int;
  s_base : int;
  s_min_acked : int;
  s_replicas : replica_stat array;
  frames_sent : int;
  frames_delivered : int;
  frames_dropped : int;
  frames_delayed : int;
  frames_duped : int;
  frames_reordered : int;
  retransmits : int;
  fenced : int;
  acks : int;
  heartbeats : int;
  hellos : int;
  resyncs : int;
  disconnects : int;
  detaches : int;
  promotions : int;
}

val stats : t -> stats
