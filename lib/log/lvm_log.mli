(** The unified log-lifecycle subsystem.

    The paper's log segments have a real lifecycle — provisioned by the
    kernel, extended on logging faults at page boundaries (Section 3.2),
    truncated at commit and checkpoint (Sections 2.4–2.5). This module
    owns that state machine for every log segment of a kernel, so no
    caller outside lib/log manipulates log-table addresses directly.

    {2 Extent rings}

    A managed log is a chain of fixed-size page {e extents} laid out
    consecutively in its segment. Each extent is in one of four states,
    derived from the write position and the truncation watermark:

    - [Active] — the logger's log-table entry points into it;
    - [Sealed] — fully written, awaiting truncation;
    - [Truncatable] — marked reclaimable by a commit or checkpoint;
    - [Recycled] — reclaimed; reused before any new extent is allocated.

    Extent switches ride the existing [Log_addr_invalid] logging-fault
    path: when the logger crosses into the first page of the next extent
    the kernel re-points the log-table entry and this module accounts the
    switch (and whether the extent was a recycled one — steady-state
    logging stops allocating once the ring is primed). Compaction
    ({!compact}) recycles truncatable extents with the kernel's bcopy
    path, exactly as the seed's offset-based [truncate_log] did, so
    costs are unchanged.

    {2 Group commit}

    {!Batcher} amortizes a force callback (the Ramdisk WAL force) over
    [group] commits. With [group = 1] (the default everywhere) every
    commit forces immediately and all Table 3 numbers are bit-identical
    to the ungrouped implementation.

    All bookkeeping here is cycle-free; only {!compact}'s bcopy and the
    page materialization of extension charge machine time, through the
    same kernel primitives the seed used. *)

type t
(** A managed log: a log segment plus its lifecycle state. *)

type extent_state = Active | Sealed | Truncatable | Recycled

type stats = {
  extents : int;  (** provisioned extents (capacity / extent bytes) *)
  extent_pages : int;
  active : int;
  sealed : int;
  truncatable : int;
  recycled : int;
  capacity : int;  (** segment capacity, bytes *)
  write_pos : int;  (** synchronized write position, bytes *)
  utilization_pct : int;  (** write_pos * 100 / capacity *)
  truncation_lag : int;
      (** bytes sealed but not yet marked truncatable — how far
          checkpointing trails the logger *)
  switches : int;  (** extent switches observed on the fault path *)
  reuses : int;  (** switches that landed on a recycled extent *)
  recycled_total : int;  (** extents reclaimed by compaction, ever *)
}

(** {1 Construction} *)

val create :
  ?mode:Lvm_machine.Logger.mode -> ?extent_pages:int -> Lvm_vm.Kernel.t ->
  size:int -> t
(** Provision a fresh log segment of [size] bytes under lifecycle
    management. [extent_pages] (default 4) is the ring's extent size. *)

val of_segment :
  ?extent_pages:int -> Lvm_vm.Kernel.t -> Lvm_vm.Segment.t -> t
(** Attach an existing log segment; idempotent per kernel (a second
    attach returns the same handle and ignores [extent_pages]). Raises
    [Error.Not_a_log_segment] for non-log segments. *)

val segment : t -> Lvm_vm.Segment.t
val kernel : t -> Lvm_vm.Kernel.t

(** {1 The lifecycle state machine} *)

val extent_state : t -> int -> extent_state
(** State of extent [i] (0-based); raises [Invalid_argument] out of
    range. *)

val stats : t -> stats

val sync : t -> unit
(** Synchronize the segment's write position from the logger. A hard
    sync: drains the logger's write-coalescing buffer first when one is
    configured (see {!Lvm_vm.Kernel.sync_log}). *)

val stream_version :
  Lvm_vm.Kernel.t -> Lvm_vm.Segment.t -> Lvm_machine.Log_record.version
(** Wire format of a log segment's record stream, managed or not: the
    kernel's logger writes every stream, so its codec is authoritative
    for [Normal]-mode logs; mapped and indexed streams are [V0]. *)

val snapshot_bytes : Lvm_vm.Kernel.t -> Lvm_vm.Segment.t -> len:int -> Bytes.t
(** Untimed copy of the first [len] bytes of a log segment's record
    stream out of its frames (one address translation per page). *)

val length : t -> int
(** Synchronized write position: bytes of records in the log. *)

val room : t -> int
(** Bytes of capacity left past the synchronized write position. *)

val extend : t -> pages:int -> unit
(** Grow the log and materialize the new pages (Section 3.2's
    provide-pages-in-advance path); leaves absorption mode if the logger
    was writing to the default page. *)

val reserve : t -> bytes:int -> max_pages:int -> unit
(** Backpressure: ensure [bytes] more record traffic fits, extending
    just enough, or raise typed [Error.Log_exhausted] {e before} the
    caller issues the writes if that would exceed [max_pages]. *)

val mark_truncatable : t -> upto:int -> unit
(** A commit or checkpoint declares records before byte [upto] dead;
    whole extents below the watermark become [Truncatable]. Raises
    [Error.Out_of_range] unless [0 <= upto <= length]. Does not move
    data — pair with {!compact}. *)

val compact : t -> unit
(** Recycle everything below the truncation watermark: compact the kept
    suffix to the front of the segment (kernel bcopy, charged), recycle
    the freed extents, re-arm the logger at the new write position. *)

val truncate : t -> keep_from:int -> unit
(** [mark_truncatable ~upto:keep_from] followed by {!compact}: the
    seed's [truncate_log], now expressed in lifecycle terms. *)

val truncate_suffix : t -> new_end:int -> unit
(** Discard records at and after byte [new_end] (rollback: replayed
    history beyond the target time is dead). *)

val seal : t -> int
(** Seal the log's entire current span: sync, then truncate everything
    written so far ([truncate ~keep_from:length]), recycling every full
    extent and re-arming the logger at the front. Returns the number of
    record bytes sealed. A failure-atomic snapshot calls this once its
    boundary record is durable — the hardware log's job for those records
    is done, and the extent ring starts the next snapshot epoch empty.

    Sealing an empty active extent — and hence sealing twice in one
    epoch — is a guaranteed no-op returning [0]: nothing is compacted or
    recycled, {!stats} are unchanged, and the ring stays consistent. *)

(** {1 Group commit} *)

module Batcher : sig
  type batcher

  val create :
    ?obs:Lvm_obs.Ctx.t -> group:int -> force:(unit -> unit) -> unit ->
    batcher
  (** Force [force] once per [group] commits. Raises
      [Error.Out_of_range] if [group < 1]. With [obs], batch sizes feed
      the ["rlvm.commit_batch"] histogram. *)

  val group : batcher -> int

  val pending : batcher -> int
  (** Commits enqueued since the last force. *)

  val note_commit : batcher -> unit
  (** Record one commit; forces when the batch fills. With [group = 1]
      this is exactly one force per commit. *)

  val flush : batcher -> unit
  (** Force now if anything is pending. *)

  val reset : batcher -> unit
  (** Drop pending commits without forcing (crash recovery). *)
end
