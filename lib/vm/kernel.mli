(** The virtual memory kernel: the V++ Cache Kernel analogue.

    The kernel owns the simulated machine and implements the VM system
    extensions of Section 3.2: fault handling for logged pages (putting
    pages in write-through mode and loading the logger's tables), logging
    faults (page-mapping-table reloads, log extension across page
    boundaries, default-page absorption), overload recovery, the
    deferred-copy mapping, and write-protection faults for the page-protect
    checkpointing baseline.

    All application memory access goes through {!read} and {!write}, which
    translate virtual addresses through the current address space's page
    table and charge the machine's timing model.

    Invalid requests raise {!Error.Lvm_error} with a typed payload
    (see {!Error}). *)

type t

type ext = ..
(** Extension slot: upper layers (notably the [Lvm_log] log-lifecycle
    subsystem) add a constructor and hang per-kernel state off
    {!set_log_ext} without the kernel depending on them. *)

val create :
  ?obs:Lvm_obs.Ctx.t -> ?hw:Lvm_machine.Logger.hw ->
  ?record_old_values:bool -> ?codec:Lvm_machine.Log_record.version ->
  ?coalesce_depth:int -> ?frames:int -> ?log_entries:int ->
  ?cpus:int -> unit -> t
(** Boot a kernel on a fresh machine. [record_old_values] enables the
    on-chip pre-image records of Section 4.6. [codec] and
    [coalesce_depth] configure the logger's record wire format and
    write-coalescing buffer (see {!Lvm_machine.Logger.create}); both
    default to off, the seed datapath. [obs] is the observability
    context shared with the machine (default: a fresh one). [cpus]
    (default 1) boots a multi-processor machine; see {!set_cpu} and
    {!run_cpus}. *)

val machine : t -> Lvm_machine.Machine.t
val perf : t -> Lvm_machine.Perf.t

val obs : t -> Lvm_obs.Ctx.t
(** The machine's observability context; the kernel traces VM faults and
    log maintenance into it and keeps [kernel.*] counters there. *)

val snapshot : t -> Lvm_obs.Snapshot.t
(** All counters — machine perf record plus [kernel.*] — at this moment. *)

val time : t -> int
val compute : t -> int -> unit

(** {1 Processors}

    The kernel runs one fault-handler context per CPU: the "current
    address space" is per-CPU state, and all other kernel tables are
    shared (one bus, one logger, one frame pool). Exactly one CPU
    executes at a time; {!run_cpus} interleaves them deterministically. *)

val cpus : t -> int

val current_cpu : t -> int

val set_cpu : t -> int -> unit
(** Switch the kernel (and machine) to CPU [i]: subsequent accesses
    charge its clock and cache and see its current address space. *)

val cpu_time : t -> cpu:int -> int

val max_time : t -> int
(** Latest CPU clock — the wall-clock time of a multi-CPU phase. *)

val run_cpus : t -> tasks:(unit -> bool) array -> unit
(** Deterministic round-robin multi-CPU scheduler: [tasks.(i)] runs on
    CPU [i]; each pass gives every unfinished task one step, in CPU
    order, with the kernel switched to that CPU for the duration of the
    step. A task returns [false] when finished. Returns with CPU 0
    active once every task has finished. Raises [Invalid_argument] if
    there are no tasks or more tasks than CPUs. *)

(** {1 Objects} *)

val create_space : t -> Address_space.t

val context_switch : t -> Address_space.t -> unit
(** Switch the processor to another process's address space, unloading
    logger table state belonging to the outgoing process as Section 3.1.2
    describes: the prototype's page mapping table is keyed by physical
    page, so when several processes log the same shared segment to
    separate logs (the per-process database logs of Section 2.1), the
    kernel must invalidate the segment's PMT entries and re-point
    [logged_via] at the incoming process's region; the next logged write
    faults and reloads the right log. Charges the context-switch cost. *)

val create_segment :
  ?manager:(Segment.t -> int -> unit) -> ?backing:Backing_store.t -> t ->
  size:int -> Segment.t
(** A standard data segment; [manager] is the user-level page-fill hook.
    With [backing], the segment is demand-paged from (and evictable to)
    the given store — the mapped-file pattern; the store, not the
    manager, defines a backed page's initial contents. *)

val sync_segment : t -> Segment.t -> unit
(** Write every resident page of a backed segment to its store (msync). *)

val evict_page : t -> Segment.t -> page:int -> unit
(** Page one resident page out to the backing store, dropping its frame
    and mappings; the next access faults it back in. *)

val create_log_segment :
  ?mode:Lvm_machine.Logger.mode -> t -> size:int -> Segment.t
(** A log segment with initial capacity [size] bytes (whole pages). *)

val create_region : ?seg_offset:int -> ?size:int -> t -> Segment.t -> Region.t
(** A region over [segment\[seg_offset, seg_offset+size)]; defaults to the
    whole segment. *)

val bind : t -> Address_space.t -> ?vaddr:int -> Region.t -> int
(** Bind the region, returning its base virtual address. *)

val unbind : t -> Address_space.t -> Region.t -> unit

(** {1 Logging control} *)

val set_region_log : t -> Region.t -> Segment.t option -> unit
(** Declare (or remove) the region's log segment (Table 1: [Region::log]).
    Already-resident pages are switched to write-through/logged mode and
    the logger tables are updated. *)

val set_logging_enabled : t -> Region.t -> bool -> unit
(** Dynamically enable or disable logging for a region (Section 2.7). *)

val sync_log : t -> Segment.t -> unit
(** Bring the log segment's [write_pos] up to date from the logger's log
    table entry. This is the {e hard} sync — the commit/force/snapshot
    ordering point — so it first drains the logger's write-coalescing
    buffer (a no-op when coalescing is off). *)

val sync_log_pos : t -> Segment.t -> unit
(** Like {!sync_log} but without draining the coalescing buffer: only
    recomputes [write_pos]. The log-lifecycle layer's per-write room
    reservations use this (together with
    {!Lvm_machine.Logger.pending_log_bytes_bound}) so that reserving room
    on every write does not defeat coalescing. *)

(** {1 Log lifecycle hooks}

    Extension, reservation, truncation and extent accounting live in the
    [Lvm_log] subsystem (lib/log); the kernel exposes only the privileged
    mechanics it needs. No caller outside lib/log should manipulate
    log-table addresses directly. *)

val log_ext : t -> ext option
val set_log_ext : t -> ext option -> unit

val set_log_crossing_observer :
  t -> (Segment.t -> next_page:int -> absorbed:bool -> unit) option -> unit
(** Install a cycle-free observer invoked on every [Log_addr_invalid]
    page crossing of a normal/indexed log, after the kernel has serviced
    it: [next_page] is the page the logger advanced into, [absorbed]
    whether the crossing fell into the default log page. *)

val rearm_log : t -> Segment.t -> unit
(** Re-point the logger's log-table entry (if the segment holds one) at
    the segment's current [write_pos], materializing the page under it;
    with no table entry, just resynchronizes the active page. Called by
    the lifecycle layer after it moves [write_pos]. *)

val leave_absorption : t -> Segment.t -> unit
(** Resume logging into the segment after fresh capacity was provided
    while it was absorbing into the default log page; no-op when not
    absorbing. Records absorbed meanwhile are lost (Section 3.2). *)

(** {1 Access} *)

val read : t -> Address_space.t -> vaddr:int -> size:int -> int
val write : t -> Address_space.t -> vaddr:int -> size:int -> int -> unit

val read_word : t -> Address_space.t -> int -> int
val write_word : t -> Address_space.t -> int -> int -> unit

(** {1 Deferred copy} *)

val declare_source : t -> dst:Segment.t -> src:Segment.t -> offset:int -> unit
(** [Segment::sourceSegment]: segment [dst] appears initialized from [src]
    starting at page-aligned [offset] (Section 2.3). Materializes both
    segments and installs the second-level-cache mappings. *)

val reset_deferred_copy : t -> Address_space.t -> start:int -> len:int -> unit
(** [AddressSpace::resetDeferredCopy]: undo all modifications to
    deferred-copy destination pages in the given virtual range. *)

val reset_deferred_segment : t -> Segment.t -> unit
(** Reset every deferred-copy page of a destination segment. *)

val dirty_spans : t -> Segment.t -> (int * int) list
(** Byte [(off, len)] runs of [seg] modified since its deferred-copy
    state was last reset, ascending, with adjacent runs coalesced — the
    modification set at the line granularity the second-level cache
    tracks. [seg] must be a deferred-copy destination (otherwise the
    list is empty: nothing tracks its writes). Cycle-free; this is the
    dirty-span enumeration hook the failure-atomic snapshot layer
    ([Lvm_fams]) builds its redo records from. *)

(** {1 Write protection (page-protect baseline)} *)

val protect_region : t -> Region.t -> unit
(** Write-protect all pages of the region; the next write to each page
    faults once (Li/Appel checkpointing, Section 5.1). *)

val set_protect_fault_handler :
  t -> (Address_space.t -> Region.t -> vaddr:int -> unit) option -> unit

val protect_fault_handler :
  t -> (Address_space.t -> Region.t -> vaddr:int -> unit) option
(** The currently installed handler (so facilities can chain). *)

val remap_page :
  t -> Address_space.t -> Region.t -> seg_page:int -> new_frame:int -> unit
(** Point segment page [seg_page] at [new_frame]: update the segment's
    frame table, the reverse frame map, and the page-table entry in the
    given space; invalidate first-level lines of the old frame and free
    it. This is the Li/Appel restore primitive — rolling back a modified
    page by resetting the mapping to its checkpoint copy (Section 5.1).
    Charged as a page-table update, not a copy. *)

(** {1 Raw (untimed) segment access — initialization and verification} *)

val materialize_page : t -> Segment.t -> page:int -> int
(** Ensure the page has a frame; returns the frame number. *)

val paddr_of : t -> Segment.t -> off:int -> int
(** Physical address of segment offset [off] (materializing the page). *)

val owner_of_frame : t -> frame:int -> (Segment.t * int) option
(** Reverse map from a physical frame to the (segment, page) holding it;
    how log readers translate the physical addresses the prototype logger
    records back to segment offsets (Section 3.1.2). An array indexed by
    frame number; [None] for a free frame or one outside memory. *)

val find_mapping : t -> vaddr:int -> (Segment.t * int) option
(** Translate a virtual address to (segment, byte offset), preferring the
    current address space; how log readers resolve the virtual addresses
    on-chip loggers record (Section 4.6). *)

val seg_read_raw : t -> Segment.t -> off:int -> size:int -> int
(** Untimed read of the segment's logical content (deferred-copy source
    redirection honored). *)

val seg_write_raw : t -> Segment.t -> off:int -> size:int -> int -> unit
