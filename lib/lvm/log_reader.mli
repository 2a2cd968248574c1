(** Reading log segments.

    A log segment holds a time-ordered sequence of 16-byte records (earlier
    writes at lower offsets, Section 2.1). This module parses them, either
    untimed (for checkers, debuggers attached out-of-band, and tests) or
    timed (charging the machine's read costs, as an application scanning
    its own log would).

    Prototype-logger records carry physical addresses; {!seg_offset}
    translates them back to an offset in a segment through the kernel's
    frame map. *)

type kernel = Lvm_vm.Kernel.t
type segment = Lvm_vm.Segment.t

val length : kernel -> segment -> int
(** Bytes of records currently in the log (syncs with the logger, which
    also drains its coalescing buffer when one is configured). *)

val record_count : kernel -> segment -> int
(** Logical records in the log (decoded count under [V1]). *)

val fold_phys :
  kernel -> segment -> init:'a ->
  f:('a -> off:int -> next:int -> Lvm_machine.Log_record.t list -> 'a) -> 'a
(** Untimed fold over the {e physical} records of a [V1] stream — its
    containers. A container may decode to several logical records (a
    run) or none (the version header, pads). [next] is the offset just
    past the container, the only valid truncation points of a [V1]
    stream. A [V0] stream is read with {!fold}. *)

val read_at : kernel -> segment -> off:int -> Lvm_machine.Log_record.t
(** Untimed parse of the record at byte offset [off]. *)

val charge_read : kernel -> segment -> off:int -> len:int -> unit
(** Charge the cache-model cost of reading [len] stream bytes at [off]
    (one word read per 4 bytes) without parsing them — how the
    checkpoint machinery prices a pass over an encoded container. *)

val walk_v0 :
  ?start:int -> kernel -> segment -> f:(off:int -> paddr:int -> bool) -> int
(** Walk a [V0] stream's records from byte offset [start] (default 0),
    handing [f] each record's offset and physical address, until [f]
    answers [false] or the log ends. Returns the offset of the first
    record not consumed. One logger sync per walk and one address
    translation per page; if [f] truncates or compacts the log (the
    segment's layout generation changes), the walk drops its cached
    translation and clamps the remaining span to the new [write_pos].
    {!fold} and [Checkpoint.replay] are built on it. *)

val map : kernel -> Lvm_vm.Address_space.t -> segment -> int
(** Bind the log segment into an address space for reading (Section 2.1:
    "the log segment may also be mapped into the address space, so that
    the same (or a different) application can read the log records").
    Returns the base address; parse records with {!read_mapped}. *)

val read_mapped :
  kernel -> Lvm_vm.Address_space.t -> base:int -> off:int ->
  Lvm_machine.Log_record.t
(** Parse the record at byte offset [off] of a log mapped at [base],
    reading through the address space like any application load. *)

val fold :
  kernel -> segment -> init:'a ->
  f:('a -> off:int -> Lvm_machine.Log_record.t -> 'a) -> 'a
(** Untimed fold over all records in log order. Safe against concurrent
    truncation: if [f] compacts or truncates the log mid-fold, the walk
    detects the segment's layout-generation change, invalidates its
    cached page translation and re-clamps the remaining span to the new
    [write_pos] instead of reading stale bytes through a recycled
    extent's old mapping. *)

val iter :
  kernel -> segment -> f:(off:int -> Lvm_machine.Log_record.t -> unit) -> unit

val to_list : kernel -> segment -> Lvm_machine.Log_record.t list

(** {1 Records that land in one segment}

    What every state-rebuilding reader needs: skip pre-image records and
    keep the writes whose address lies in a given segment. *)

val seg_offset : kernel -> seg:segment -> addr:int -> int
(** The byte offset in [seg] of record address [addr], or [-1] when
    [addr] lies outside [seg]: through the frame map's stored entry for
    the prototype logger's physical addresses (allocating nothing),
    through the address spaces for the on-chip logger's virtual ones. *)

val offer :
  kernel -> seg:segment -> addr:int -> size:int -> value:int ->
  f:(off:int -> paddr:int -> size:int -> value:int -> bool) -> bool
(** Hand [f] a logged write of [value] ([size] bytes) to record address
    [addr] if it lands in [seg]: [off] is {!seg_offset}, [paddr] the
    physical address it writes ([addr] itself under the prototype
    logger). A write elsewhere is passed over ([true]); otherwise the
    answer is [f]'s. One logger-model check per write, no allocation
    under the prototype logger. *)

val located : kernel -> seg:segment -> Lvm_machine.Log_record.t -> int
(** [seg_offset] of the record's address, or [-1] for a pre-image. *)

val fold_in :
  kernel -> segment -> seg:segment -> init:'a ->
  f:('a -> rec_off:int -> off:int -> Lvm_machine.Log_record.t -> 'a) -> 'a
(** Untimed {!fold} over the records {!located} in [seg]: [rec_off] is the
    record's (container's) offset in the log, [off] the byte offset it
    writes in [seg]. *)

val iter_in :
  kernel -> segment -> seg:segment ->
  f:(rec_off:int -> off:int -> Lvm_machine.Log_record.t -> unit) -> unit
