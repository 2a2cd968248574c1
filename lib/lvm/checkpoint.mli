(** Checkpointing, rollback and CULT over logged segments.

    The simulation pattern of Section 2.4: a working segment is logged and
    has a checkpoint segment as its deferred-copy source. Rolling back
    means [reset_deferred_copy] followed by re-applying logged updates up
    to the target point; advancing the checkpoint means applying logged
    updates older than a cutoff to the checkpoint segment and truncating
    the log — checkpoint update and log truncation, CULT. *)

type kernel = Lvm_vm.Kernel.t
type segment = Lvm_vm.Segment.t

val apply_record :
  kernel -> target:segment -> off:int -> Lvm_machine.Log_record.t -> unit
(** Write the record's value at byte offset [off] of [target], charged as
    an ordinary cached (unlogged) write. *)

val roll_forward :
  kernel -> log:segment -> from:int ->
  apply:(off:int -> Lvm_machine.Log_record.t -> [ `Continue | `Stop ]) -> int
(** Scan records from byte offset [from], charging timed record reads, and
    hand each to [apply] until it answers [`Stop] or the log ends. Returns
    the byte offset of the first unconsumed record (the [`Stop] record is
    not consumed). *)

val rollback :
  kernel -> space:Lvm_vm.Address_space.t -> working:segment ->
  working_region:Lvm_vm.Region.t -> base:int -> log:segment ->
  upto:(Lvm_machine.Log_record.t -> (segment * int) option -> bool) -> unit
(** Roll the working segment back: disable the region's logging, reset the
    deferred copy over the region's range, re-apply logged updates while
    [upto record at] holds, truncate the abandoned log suffix, re-enable
    logging. [at] is the record's {!Log_reader.locate} result, computed
    once per record and shared with the apply step. [base] is the
    region's bound address in [space]. *)

val cult :
  kernel -> working:segment -> checkpoint:segment -> log:segment ->
  upto:(Lvm_machine.Log_record.t -> (segment * int) option -> bool) -> int
(** Checkpoint update and log truncation: apply each leading record
    satisfying [upto record at] to the checkpoint segment at the offset
    the record names in the working segment, then truncate the consumed
    prefix. [at] is as for {!rollback}. Returns the number of records
    applied. *)

val cult_all : kernel -> working:segment -> checkpoint:segment ->
  log:segment -> int
(** CULT with no cutoff: fold the entire log into the checkpoint. *)
