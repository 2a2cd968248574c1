(** The recoverable region under {!Rlvm} and [Lvm_fams].

    Both front ends map the same thing: a logged working segment
    deferred-copied from a committed image, a hardware log ring, and a
    RAM-disk write-ahead log with its group-commit batcher. They differ
    only in where a commit's write set comes from — RLVM walks the
    transaction's hardware log records, FAMS reads the epoch's dirty
    spans — and in the marker that commits it. This module owns the rest
    once: the configuration, the mapping, the redo encoder, the
    truncation rule and recovery. It is the front ends' shared body, not
    an application interface. *)

module Config : sig
  type t = {
    log_pages : int;
        (** Initial hardware-log provision, pages (default 32). *)
    max_log_pages : int option;
        (** Backpressure ceiling for log extension; [None] means
            [2 * log_pages]. *)
    group : int;
        (** Group-commit batch size: the WAL is forced once per [group]
            commits (default 1 — force every commit). *)
  }

  val default : t
  (** [{ log_pages = 32; max_log_pages = None; group = 1 }]. *)
end

type t = private {
  k : Lvm_vm.Kernel.t;
  space : Lvm_vm.Address_space.t;
  working : Lvm_vm.Segment.t;  (** Deferred-copied from [committed]. *)
  committed : Lvm_vm.Segment.t;
  region : Lvm_vm.Region.t;  (** The logged region over [working]. *)
  ls : Lvm_vm.Segment.t;  (** The hardware log segment of [log]. *)
  log : Lvm_log.t;
  base : int;
  size : int;  (** Usable bytes. *)
  disk : Ramdisk.t;
  batcher : Lvm_log.Batcher.batcher;
  max_log_pages : int;
  mutable redo_txn : int;  (** The open redo's commit id. *)
  mutable redo_words : Lvm_machine.Log_record.t Lvm_machine.Squash.t option;
}

val map :
  op:string -> ?txn_cell:bool -> Config.t -> Lvm_vm.Kernel.t ->
  Lvm_vm.Address_space.t -> size:int -> t
(** Validate [size] (a positive word multiple) and the config, then map
    the region at a fresh base address of [space], all-zero and
    logging-enabled. With [Config.group > 1] the WAL tail is volatile
    until the batcher forces it. [txn_cell] (default [false]) reserves
    one more word at offset [size] for a transaction-id cell and rejects
    a log provision that cannot hold one worst-case transaction (every
    word plus two cell writes) with [Log_capacity]. Errors are raised as
    [Lvm_vm.Error.Lvm_error] naming [op]. *)

val read_word : t -> off:int -> int
(** A timed read of the word at [off]; [Out_of_segment] outside [size]. *)

val check_off : t -> int -> unit
(** Raise [Out_of_segment] unless the word at [off] lies inside [size]. *)

val reserve : t -> unit
(** Backpressure before a logged store: make room for one log record,
    extending the log up to [max_log_pages], else raise
    [Log_exhausted] before the store is issued. *)

(** {1 Redo}

    One commit's redo goes to the WAL in three steps: {!open_redo},
    {!write_redo} per write, {!finish_redo}. The format follows the
    hardware log's stream version. Under [V0], the paper's format, each
    write is appended at once as one [Data] record. Under [V1] writes
    are split into words, squashed (the last value of each word wins,
    first-touch order), stamped with the commit's id and appended at
    finish as one [Encoded] record. A region has at most one open redo. *)

val open_redo : t -> txn:int -> unit

val write_redo : t -> off:int -> Bytes.t -> unit
(** The new value of image bytes [off ..]. Under [V1] [off] and the
    length must be word multiples. *)

val write_redo_value : t -> off:int -> size:int -> value:int -> unit
(** One logged write's new value, [size] bytes (1, 2 or 4) at [off]: the
    same redo as {!write_redo} of those bytes, built without them — under
    [V0] it goes straight into the WAL buffer. *)

val finish_redo : t -> Ramdisk.entry -> unit
(** Append what is left of the redo, then the given commit marker, and
    note the commit with the group batcher (which forces the WAL once a
    batch is full). *)

val truncate_if_forced : t -> unit
(** Truncate the WAL if it is past threshold and no commit is waiting
    for a force: truncation applies records to the image, so it must not
    run past an unforced tail. *)

val rewind : t -> restore:(unit -> unit) -> unit
(** Throw away the hardware log of the current epoch: drop the writes
    still in the logger's coalescing buffer, clear absorption and
    truncate the log to empty, then run [restore] with logging off (so
    its writes are not logged) and turn logging back on. Shared by
    {!recover} and [Rlvm.abort]. *)

val recover : t -> Ramdisk.recovery
(** Crash recovery: drop the crashed epoch's writes still in the
    logger's coalescing buffer, forget the unforced batch, recover the
    RAM disk, clear the hardware log and reload both segments from the
    recovered image. Idempotent. *)
