(** Reverse execution for debugging (Section 1).

    "A program is allowed to run until it fails, and then backed up or
    reverse-executed until the problem is located." Given a checkpoint
    segment (the deferred-copy source of the debuggee's working segment)
    and the log of writes since that checkpoint, any intermediate state
    can be reconstructed: reset to the checkpoint and replay a prefix of
    the log, so stepping backwards is replaying one write fewer.

    When the on-chip logger was recording old values (Section 4.6's
    pre-image option, [Machine.create ~record_old_values:true]), backward
    steps instead apply the recorded pre-images in reverse — constant
    work per step, no reset or replay. Positions count {e writes}; the
    interleaved pre-image records are handled internally. Each write's
    record is decoded once, at attach time, so under the [V1] codec every
    write of a run or delta container replays its own value. *)

type t

val create :
  Lvm_vm.Kernel.t -> space:Lvm_vm.Address_space.t ->
  working:Lvm_vm.Segment.t -> region:Lvm_vm.Region.t -> base:int ->
  log:Lvm_vm.Segment.t -> t
(** Take control of a stopped debuggee whose [working] segment is logged
    to [log] and deferred-copied from its checkpoint. Indexes the log;
    position [n] below means "after the first [n] writes". *)

val length : t -> int
(** Number of writes captured at attach time. *)

val position : t -> int
(** Current replay position in writes; starts at [length] (the failure
    state). *)

val seek : t -> int -> unit
(** Materialize the state after exactly [n] writes. Seeking backwards
    applies pre-images in reverse when available, otherwise resets and
    replays the shorter prefix; writes are never re-logged because region
    logging is disabled while attached. *)

val step_back : t -> bool
(** [seek (position - 1)]; false at position 0. *)

val step_forward : t -> bool

val detach : t -> unit
(** Restore the failure state (position = length) and re-enable
    logging. *)

val record_at : t -> int -> Lvm_machine.Log_record.t
(** The [i]-th write's record (0-based), for inspecting what the next
    forward step would store. *)
