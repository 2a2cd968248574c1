(** Coda-style recoverable virtual memory: the [set_range] baseline.

    The application must bracket every modification of recoverable memory
    with {!set_range} so the library can save the old value (for abort)
    and build the redo record (for commit) — the error-prone annotation
    burden Section 2.5 describes. On commit the redo records are forced to
    the RAM-disk write-ahead log; truncation folds the log into the disk
    image when it grows past a threshold.

    With [~strict:false] unannotated writes are permitted and silently
    unrecoverable, reproducing the classic missed-[set_range] bug for the
    failure-injection tests. *)

type t

exception Unannotated_write of { off : int }

(** Configuration record; override {!Config.default} with the
    functional-update syntax. *)
module Config : sig
  type t = {
    strict : bool;
        (** Reject writes not covered by a {!set_range} (the library's
            contract); [false] reproduces the missed-annotation bug. *)
  }

  val default : t
  (** [{ strict = true }]. *)
end

val make :
  Config.t -> Lvm_vm.Kernel.t -> Lvm_vm.Address_space.t -> size:int -> t
(** Map a recoverable segment of [size] bytes backed by a fresh RAM disk. *)

val kernel : t -> Lvm_vm.Kernel.t
val base : t -> int
(** Base virtual address of the mapped recoverable segment. *)

val size : t -> int
val disk : t -> Ramdisk.t
val in_txn : t -> bool

val begin_txn : t -> unit
(** Open a transaction. Misuse raises a typed
    [Lvm_vm.Error.Lvm_error (Invalid { op; reason })] naming the call:
    [begin_txn] while one is open, or {!set_range}, {!write_word},
    {!commit} or {!abort} with none open. *)

val set_range : t -> off:int -> len:int -> unit
(** Declare the next modification; saves the old value and pre-builds the
    redo record (the dominant per-write cost, Table 3). *)

val read_word : t -> off:int -> int
val write_word : t -> off:int -> int -> unit
(** @raise Unannotated_write in strict mode if [off] is not covered by a
    [set_range] of the open transaction. *)

val commit : t -> unit
(** Force redo records and the commit entry to the write-ahead log, then
    truncate it if past the threshold. *)

val abort : t -> unit
(** Restore every saved old value. *)

val crash_and_recover : t -> unit
(** Simulate a crash: the in-memory segment is lost and reloaded from the
    RAM disk's recovered (last-committed) state; any open transaction
    vanishes. *)
