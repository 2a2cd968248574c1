(** Fault vocabulary for deterministic fault injection.

    A {!site} names a hook point threaded through the simulated stack —
    the instruction stream, the RAM disk's write path, the logger's DMA
    engine and FIFO, and log-segment page provisioning. A {!kind} names
    what goes wrong there. A {!Plan} (see {!Plan}) schedules kinds at
    sites; the component owning each site interprets the kind:

    - [Crash] at any site aborts the workload by raising {!Crashed} —
      volatile state is considered lost, the RAM disk survives.
    - [Torn_write] applies only to [Ramdisk_write]: the first [keep]
      bytes of the serialized WAL record reach the disk, then the
      machine dies (a torn write can only ever be the last one).
    - [Failed_write] applies to [Ramdisk_write]: the record is silently
      dropped — the classic lost-write disk fault.
    - [Bit_flip] applies to [Ramdisk_write]: one bit of the serialized
      record is inverted after it is written; recovery's checksums must
      catch it.
    - [Dma_fail] applies to [Log_dma]: the logger's record DMA fails
      and the record is lost (counted in [Perf.log_records_lost]).
    - [Fifo_overrun] applies to [Logger_admit]: the admission check
      behaves as if the FIFO threshold were crossed, forcing the
      overload interrupt.
    - [Log_exhaust] applies to [Log_segment]: the kernel's
      log-address-invalid handler behaves as if the log segment had no
      pages left, forcing default-page absorption.
    - [Net_drop], [Net_delay], [Net_dup] and [Net_reorder] apply to the
      transport sites [Net_frame] (primary-to-replica replication
      frames) and [Net_ack] (replica-to-primary acks and hellos): the
      frame being sent is lost, delayed by [ticks], delivered twice, or
      delivered ahead of frames already in flight on the same link (see
      [Lvm_repl.Transport]). *)

type site =
  | Cpu  (** Instruction-stream boundary: every read/write/compute. *)
  | Ramdisk_write  (** A serialized WAL record reaching the RAM disk. *)
  | Ramdisk_force  (** The commit-time log force. *)
  | Log_dma  (** The logger forming and DMA-ing one log record. *)
  | Logger_admit  (** FIFO admission of a snooped write. *)
  | Log_segment  (** Log-segment page provisioning in the kernel. *)
  | Net_frame  (** A replication frame leaving the primary. *)
  | Net_ack  (** An ack/hello frame leaving a replica. *)
  | Split_cutover
      (** The sharded store's shard-split cutover point: consulted just
          before the coordinator transaction that atomically flips the
          routing table is forced (see [Lvm_store.Store]). A [Crash]
          here dies with the copy complete but the route flip not yet
          durable — the canonical split-protocol crash window. *)

type kind =
  | Crash
  | Torn_write of { keep : int }
  | Failed_write
  | Bit_flip of { byte : int; bit : int }
  | Dma_fail
  | Fifo_overrun
  | Log_exhaust
  | Net_drop
  | Net_delay of { ticks : int }
  | Net_dup
  | Net_reorder

exception Crashed of { cycle : int; site : site }
(** The injected machine crash. Volatile state (segments, caches, the
    log segment) is lost; only the RAM disk is durable. Catch it, then
    run recovery. *)

val all_sites : site list

val site_code : site -> int
(** Stable small-integer code, used in {!Lvm_obs.Event.Fault_injected}. *)

val kind_code : kind -> int
(** Stable small-integer code for the kind constructor (payload
    excluded), used in {!Lvm_obs.Event.Fault_injected}. *)

val site_name : site -> string
val kind_name : kind -> string
