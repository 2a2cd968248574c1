(** Log analysis for performance tuning (Section 2.7).

    LVM performance suffers when applications "repeatedly write the same
    location when only the last write is of interest"; the paper notes
    that "the logs provide the information required to identify and
    eliminate these redundant writes." This module is that analysis:
    quantify redundancy in a log and point at the worst offenders so
    rapidly-changing temporaries can be moved out of logged regions. *)

type summary = {
  records : int;  (** Ordinary write records (pre-images excluded). *)
  distinct_locations : int;
  redundant : int;  (** Writes that were later overwritten, i.e. only the
                        last write per location is of interest. *)
  redundancy_ratio : float;  (** [redundant / records], 0 for empty logs. *)
}

val summarize :
  Lvm_vm.Kernel.t -> watched:Lvm_vm.Segment.t -> log:Lvm_vm.Segment.t ->
  summary
(** Analyze the writes that landed in [watched]. *)

val top_rewritten :
  ?limit:int -> Lvm_vm.Kernel.t -> watched:Lvm_vm.Segment.t ->
  log:Lvm_vm.Segment.t -> (int * int) list
(** The most-overwritten byte offsets as [(offset, write count)],
    descending, at most [limit] (default 10) — candidates for moving into
    an unlogged region (e.g. an {!Lvm.Arena} scratch arena). *)

(** {1 Bandwidth-diet analysis}

    The logging-bandwidth diet (versioned codec + write coalescing) gets
    its own report: how many writes the coalescing buffer absorbed, what
    the encoded stream spent per record kind, and how the encoded bytes
    compare to the 16-byte-per-record baseline. *)

type diet = {
  version : Lvm_machine.Log_record.version;
  txns : int;  (** Caller-supplied epoch count for {!diet.bytes_per_txn}. *)
  bytes_per_txn : float;  (** [bytes_encoded / txns], 0 for [txns = 0]. *)
  absorbed : int;  (** Writes merged away in the coalescing buffer. *)
  flushed : int;  (** Records that left the buffer to the log. *)
  absorption_ratio : float;  (** [absorbed / (absorbed + flushed)]. *)
  raw : int;  (** Raw physical records emitted. *)
  run : int;  (** Run (RLE) physical records emitted. *)
  delta : int;  (** Delta physical records emitted. *)
  pad : int;  (** Page-boundary pads emitted. *)
  bytes_logical : int;  (** 16 B per logical record — the V0 baseline. *)
  bytes_encoded : int;  (** Stream bytes actually written, pads included. *)
  sealed_bytes : int;  (** Bytes in sealed extents. *)
  active_bytes : int;  (** Bytes written into the active extent. *)
}

val extent_bytes : Lvm_log.t -> int * int
(** [(sealed, active)] record bytes of the log's extent ring, labeled by
    extent state: sealed covers the [Sealed] extents, active the
    written span of the [Active] extent. *)

val diet : Lvm_vm.Kernel.t -> log:Lvm_log.t -> txns:int -> diet
(** Read the kernel's diet counters ([log.coalesce_*], [log.records_*],
    [log.bytes_*]) and the ring's sealed/active split. Under [V0] the
    codec counters do not exist; encoded bytes fall back to
    [16 * log_records] (every record is raw). *)
