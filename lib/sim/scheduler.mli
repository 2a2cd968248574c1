(** A TimeWarp scheduler: one optimistic logical process owning a set of
    simulation objects (Section 2.4, Figure 3).

    Each scheduler runs on its own simulated processor (its own kernel and
    machine clock) and owns a working segment holding its objects' state, a
    checkpoint segment that is the working segment's deferred-copy source,
    and — under LVM state saving — a log segment receiving a record of
    every state write. A reserved logged word holds the scheduler's local
    virtual time; the records of its updates are the markers the rollback
    and CULT scans key on (footnote 2 of the paper).

    Rollback to time [t]: undo processed events at or after [t], send
    anti-messages for their output, and restore state — by
    [reset_deferred_copy] plus roll-forward under LVM, or by restoring
    per-event copies under copy-based saving. *)

type stats = {
  mutable events_processed : int;  (** Including re-processed. *)
  mutable events_committed : int;  (** Fossil-collected below GVT. *)
  mutable rollbacks : int;
  mutable anti_messages_sent : int;
  mutable annihilations : int;
  mutable stragglers : int;
}

type ctx = {
  self : int;  (** Global id of the object handling the event. *)
  now : int;  (** The event's virtual time. *)
  read : int -> int;  (** Read a state word of the handling object. *)
  write : int -> int -> unit;
  send : dst:int -> delay:int -> payload:int -> unit;
      (** Schedule an event [delay > 0] in the future at any object. *)
  compute : int -> unit;  (** Model event-processing CPU work. *)
}

type app = {
  n_objects : int;
  object_words : int;
  init_word : obj:int -> word:int -> int;
  handle : ctx -> payload:int -> unit;
}

type t

val create :
  ?hw:Lvm_machine.Logger.hw -> ?kernel:Lvm_vm.Kernel.t -> ?cpu:int ->
  id:int -> n_schedulers:int ->
  strategy:State_saving.t -> app:app -> fresh_uid:(unit -> int) -> unit -> t
(** Objects are distributed round-robin: object [o] lives on scheduler
    [o mod n_schedulers].

    By default each scheduler boots its own single-CPU kernel (the
    original round-based emulation of parallelism). With [kernel], the
    scheduler instead runs on CPU [cpu] (default 0) of the given shared
    multi-CPU kernel — the paper's actual ParaDiGM configuration — and
    every entry point pins the machine to that CPU first, so its work is
    charged to its own clock and cache while contending for the shared
    bus and logger. [hw] is ignored when [kernel] is supplied. *)

val id : t -> int
val kernel : t -> Lvm_vm.Kernel.t
val time : t -> int
(** This scheduler's processor clock (its pinned CPU's, on a shared
    kernel), in cycles. *)

val stats : t -> stats
val owns : t -> int -> bool
val queue_empty : t -> bool

val min_pending_time : t -> int option
(** Earliest unprocessed event time (for GVT computation). *)

val enqueue : t -> Event.t -> unit
(** Insert an initial event (no straggler handling). *)

val receive : t -> Event.msg -> unit
(** Deliver a message: a straggler triggers rollback; an anti-message
    annihilates its positive counterpart (rolling back first if the victim
    was already processed). *)

val step : t -> horizon:int -> bool
(** Process the next pending event with time at most [horizon]. Returns
    false if there was none. *)

val drain_outbox : t -> (int * Event.msg) list
(** Collect and clear messages produced since the last drain, as
    [(destination scheduler, message)] pairs, in send order. *)

val fossil_collect : t -> gvt:int -> unit
(** Commit history strictly below [gvt]: discard processed entries (and
    saved copies) below it. Under LVM, CULT — applying log records older
    than [gvt] to the checkpoint segment and truncating the log — is
    deferred until the log has grown past a threshold, mirroring the
    paper's advice to defer CULT off the critical path (Section 2.4). *)

val read_state : t -> obj:int -> word:int -> int
(** Untimed state inspection for checking results. *)
