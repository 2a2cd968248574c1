(** The unified error surface of the result-typed public APIs.

    The repo grew two error vocabularies: the kernel's typed exception
    payloads ({!Lvm_vm.Error.t} — address faults, log exhaustion, range
    errors) and per-facility variants like [Lvm_store.Store.error]
    (admission control, transaction limits). Result-typed entry points
    ({!Lvm_fams}, [Lvm_store.Store]) return this one type instead, so a
    caller matches a single scheme — and can still drill into the typed
    VM payload when it needs to (e.g. [Error (Vm (Log_exhausted _))] as
    a backpressure signal). *)

type t =
  | Vm of Lvm_vm.Error.t
      (** A kernel/VM error surfaced through a result-typed API. *)
  | Overloaded of { shard : int }
      (** Admission control shed the request (store shard busy). *)
  | Txn_too_large of { writes : int; limit : int }
  | Invalid_key of { key : int }
  | Shed of { shard : int }
      (** The shard's token-bucket admission gate refused the request
          outright (overload shedding — retrying immediately will shed
          again; back off instead). Distinct from [Overloaded], which
          reports log-room backpressure on an admitted transaction. *)
  | Moved of { key : int; shard : int }
      (** The key's bucket is mid-handoff to [shard] (a shard split or
          merge is draining): the transaction was not started and should
          be requeued — the route flips as soon as the cutover commits. *)
  | Snapshot_unavailable of { ts : int; floor : int; frontier : int }
      (** An MVCC snapshot at [ts] cannot be served: versions at or
          below [floor] have been pruned into the base image, and the
          consistent cut has only reached [frontier]. Readable as-of
          timestamps lie in [[floor, frontier]]; a released or
          recovery-invalidated snapshot also reports this. *)

val to_string : t -> string
(** Human-readable rendering. *)

val pp : Format.formatter -> t -> unit

val guard : (unit -> 'a) -> ('a, t) result
(** Run [f], catching {e only} [Lvm_vm.Error.Lvm_error] and reflecting
    its payload as [Error (Vm _)]. Injected crash faults
    ([Lvm_fault.Fault.Crashed]) and programming errors propagate — a
    simulated machine death must never be swallowed into a result. *)
