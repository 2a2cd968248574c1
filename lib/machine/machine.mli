(** The assembled simulated machine: CPU clocks, physical memory, system
    bus, first-level caches, second-level deferred-copy support and the
    logger.

    This is the hardware layer that the VM system software ([Lvm_vm])
    drives. All accesses here are physical; virtual address translation and
    fault handling live above. Execution is sequential: [compute] burns
    cycles, [read]/[write] charge the cache and bus model and perform the
    access against physical memory, and logged writes are snooped by the
    logger as a side effect of appearing on the bus.

    The machine models 1–N processor boards on the shared bus (the
    paper's ParaDiGM prototype carries four 68040s). Each CPU has a
    private clock and first-level cache; memory, the bus, the
    deferred-copy cache and the logger are shared. Exactly one CPU is
    {e active} at a time ([set_cpu]); the deterministic round-robin
    scheduler in [Lvm_vm.Kernel] interleaves them. Write-through traffic
    from any CPU is snooped both by the logger and by the other CPUs'
    caches (write-invalidate, Section 2.6), and a logger FIFO overload
    suspends only the CPU that issued the write. With [cpus = 1]
    (the default) behaviour is identical to the original
    single-processor machine. *)

type t

type write_mode =
  | Write_back  (** Normal copy-back cached page. *)
  | Write_through
      (** Page in write-through mode so writes are visible on the bus
          (required for logged pages, Section 3.2). *)

val create :
  ?obs:Lvm_obs.Ctx.t -> ?hw:Logger.hw -> ?record_old_values:bool ->
  ?codec:Log_record.version -> ?coalesce_depth:int ->
  ?frames:int -> ?log_entries:int -> ?cpus:int -> unit -> t
(** [create ()] builds a machine with [frames] physical page frames
    (default 4096, i.e. 16 MB) and the given logging hardware model
    (default [Prototype]). [record_old_values] enables the on-chip
    pre-image records of Section 4.6. [codec] and [coalesce_depth] select
    the log record wire format and the logger's write-coalescing buffer
    depth (see {!Logger.create}); both default to off, the seed datapath. [obs] is the observability context
    shared by every component (default: a fresh one, announced to any
    attached [Lvm_obs.Collector]); the perf record is enrolled in it as a
    snapshot provider. [cpus] (default 1) is the number of processor
    boards; multi-CPU machines additionally enroll a provider publishing
    [cpu.cycles{cpu=<i>}], [cpu.bus_wait_cycles{cpu=<i>}],
    [cpu.bus_grants{cpu=<i>}] and [bus.contention_cycles], plus the
    [l1.snoop_invalidations] counter — none of which exist on a
    single-CPU machine, keeping its snapshots bit-identical to before. *)

val mem : t -> Physmem.t
val logger : t -> Logger.t
val deferred : t -> Deferred_cache.t
val bus : t -> Bus.t
val perf : t -> Perf.t

val obs : t -> Lvm_obs.Ctx.t
(** The machine's observability context: trace ring, counters and
    histograms fed by every component. *)

val snapshot : t -> Lvm_obs.Snapshot.t
(** Point-in-time view of all counters (perf record included). *)

val clock : t -> int ref
(** The {e active} CPU's clock. *)

val time : t -> int
(** Current cycle count of the active CPU. *)

(** {1 Processors} *)

val cpus : t -> int
val current_cpu : t -> int

val set_cpu : t -> int -> unit
(** Make CPU [i] the active processor: subsequent [compute]/[read]/[write]
    charge its clock and private cache, its transactions own the bus
    arbiter's grant accounting, and logger overloads suspend it. Raises
    [Invalid_argument] when out of range. Costless — scheduling overhead
    is charged by the kernel's scheduler, not here. *)

val cpu_time : t -> cpu:int -> int
(** CPU [i]'s private clock. *)

val max_time : t -> int
(** The latest of all CPU clocks — wall-clock completion time of a
    multi-CPU phase. Equals [time] on a single-CPU machine at all times. *)

val bus_contention_cycles : t -> int
(** Total cycles CPUs spent waiting behind a {e different} CPU's bus
    transaction (always 0 with one CPU). *)

val l1_invalidate_page : t -> page:int -> unit
(** Drop every line of the physical page from {e all} CPUs' first-level
    caches (page remap/eviction must not leave stale lines anywhere). *)

val l1 : t -> L1_cache.t
(** The active CPU's first-level cache. *)

val set_fault_plan : t -> Lvm_fault.Plan.t option -> unit
(** Attach (or clear) a deterministic fault plan ({!Lvm_fault.Plan}). The
    plan is wired to the machine's observability context (every injection
    traces a [Fault_injected] event) and forwarded to the logger for its
    [Logger_admit]/[Log_dma] sites. The machine itself consults the plan
    at every instruction-stream boundary — each [compute], [read] and
    [write] — so a [Crash] injection at the [Cpu] site raises
    {!Lvm_fault.Fault.Crashed} at the first boundary its trigger fires. *)

val fault_plan : t -> Lvm_fault.Plan.t option

val fault_check : t -> site:Lvm_fault.Fault.site -> Lvm_fault.Fault.kind option
(** Consult the installed plan at an externally-owned fault site (the RAM
    disk's write paths, the kernel's log-segment provisioning), at the
    current cycle. [Crash] raises {!Lvm_fault.Fault.Crashed}; any other
    fired kind is returned for the caller to interpret. [None] when no
    plan is installed or nothing fires. *)

val compute : t -> int -> unit
(** Burn the given number of CPU cycles (event processing work). *)

val read : t -> paddr:int -> size:int -> int
(** Read [size] bytes at [paddr], charging first-level cache timing and
    resolving deferred-copy source redirection. *)

val charge_read : t -> paddr:int -> words:int -> unit
(** The timing half of {!read}: the same crash-boundary check, clock
    advance, first-level cache update and perf counters, without fetching
    the datum. For callers that price a read whose value they take from
    elsewhere (a log scan that decodes the record untimed). It charges
    [words] (>= 1) consecutive word reads from [paddr], exactly as that many
    one-word calls would: one crash-boundary check per word, and one
    cache lookup per line (each further word of a line is a hit). *)

val write :
  t -> paddr:int -> vaddr:int -> size:int -> mode:write_mode ->
  logged:bool -> int -> unit
(** Write [size] bytes at [paddr], issued at virtual address [vaddr].
    Logged writes must use [Write_through] (the kernel guarantees this;
    it is enforced here) and are snooped by the logger, with [vaddr]
    recorded when the hardware logs virtual addresses; an unlogged write
    ignores [vaddr]. *)

val bcopy : t -> src:int -> dst:int -> len:int -> unit
(** Kernel word-copy loop between physical ranges, charged at its
    amortized per-word cost. Reads honor deferred-copy redirection and
    writes update line-modified state; the copy itself is not logged
    (it is the checkpoint-restore baseline, Section 4.4). [len] must be a
    multiple of the word size. *)

val dc_map : t -> dst_page:int -> src_addr:int -> unit

val dc_reset_page : t -> dst_page:int -> unit
(** Reset one destination page to its source (Section 3.3): charge the
    dirty-bit check, and if the page was dirty also the per-line
    source-address reset, invalidating its first-level lines. *)

val dc_page_dirty : t -> dst_page:int -> bool

val read_raw : t -> paddr:int -> size:int -> int
(** Uncharged, un-redirected physical read (for checkers and debuggers). *)

val write_raw : t -> paddr:int -> size:int -> int -> unit
(** Uncharged raw physical write that still updates deferred-copy line
    state (used to initialize segments without perturbing timing). *)
