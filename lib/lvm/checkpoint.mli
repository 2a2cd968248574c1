(** Checkpointing, rollback and CULT over logged segments.

    The simulation pattern of Section 2.4: a working segment is logged and
    has a checkpoint segment as its deferred-copy source. Rolling back
    means [reset_deferred_copy] followed by re-applying logged updates up
    to the target point; advancing the checkpoint means applying logged
    updates older than a cutoff to the checkpoint segment and truncating
    the log — checkpoint update and log truncation, CULT. *)

type kernel = Lvm_vm.Kernel.t
type segment = Lvm_vm.Segment.t

val replay :
  kernel -> log:segment -> from:int -> seg:segment ->
  f:(off:int -> paddr:int -> size:int -> value:int -> bool) -> int
(** The located replay every roll-forward is built on (Section 2.4: a
    rollback resets the deferred copy, then rolls forward over the log).
    Scan records from byte offset [from], charging timed record reads,
    skip pre-image records, and hand [f] each write that lands in [seg]:
    its byte offset [off] in [seg], the physical address [paddr] of that
    byte, its [size] and [value]. Stops when [f] answers [false] or the
    log ends, and returns the offset of the first record not consumed
    (the record [f] refused is not consumed).

    Under [V0] with the prototype logger the scan builds no record and
    allocates nothing per record: the fields are read straight from
    memory, and the owner is checked against the frame map's stored
    entry. Under [V1] the scan goes container by container: one charged
    pass per container, and a refusal anywhere in a container returns
    the container's start. *)

val rollback :
  kernel -> space:Lvm_vm.Address_space.t -> working:segment ->
  working_region:Lvm_vm.Region.t -> base:int -> log:segment ->
  upto:(int -> int -> bool) -> unit
(** Roll the working segment back: disable the region's logging, reset the
    deferred copy over the region's range, re-apply logged updates to
    [working] while [upto off value] holds ([off] is the byte offset the
    update writes, [value] its value), truncate the abandoned log suffix,
    re-enable logging. [base] is the region's bound address in [space]. *)

val cult :
  kernel -> working:segment -> checkpoint:segment -> log:segment ->
  upto:(int -> int -> bool) -> int
(** Checkpoint update and log truncation: apply each leading update of
    [working] satisfying [upto off value] to the checkpoint segment at the
    same offset, then truncate the consumed prefix. Returns the number of
    records applied. *)

val cult_all : kernel -> working:segment -> checkpoint:segment ->
  log:segment -> int
(** CULT with no cutoff: fold the entire log into the checkpoint. *)
