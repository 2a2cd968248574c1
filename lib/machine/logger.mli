(** The hardware logger (Section 3.1).

    The logger snoops the system bus for write operations tagged as logged
    by the page mapping, translates each into a 16-byte log record, and
    DMAs the record into the current end of the associated log segment. Its
    state is:

    - a direct-mapped {e page mapping table} (PMT) keyed by physical page
      number — tag is the upper bits, index the lower [pmt_bits] bits —
      mapping pages to log table indices;
    - a {e log table} whose entries hold the physical address at which the
      next record of each log is to be written (marked invalid when the
      address crosses a page boundary);
    - write and record FIFOs (819 entries, overload threshold 512).

    A missing PMT entry or an invalid log table entry raises a {e logging
    fault} serviced by the kernel through the registered handler. FIFO
    occupancy above the threshold raises the {e overload interrupt}: the
    kernel suspends the writing processes until the FIFOs drain, a penalty
    of tens of thousands of cycles (Section 4.5.3).

    Two hardware models are provided: [Prototype] (the ParaDiGM bus
    logger: physical addresses in records, FIFO overload interrupts) and
    [On_chip] (Section 4.6: logging in the CPU's VM unit — virtual
    addresses in records and back-pressure stalls instead of overload
    interrupts). *)

type hw = Prototype | On_chip

type mode =
  | Normal  (** Sequential 16-byte records. *)
  | Direct_mapped
      (** The value is written at the same page offset in the log page as
          in the data page (mapped-I/O output, Section 2.6). *)
  | Indexed
      (** A bare stream of 4-byte data values, no address or timestamp
          (streamed device output, Section 2.6). *)

type fault =
  | Pmt_miss of { paddr : int }
      (** No valid PMT entry covers the written page. The address is the
          one the table is keyed by: physical in [Prototype] mode, virtual
          in [On_chip] mode. *)
  | Log_addr_invalid of { log_index : int }
      (** The log table entry is invalid, typically because the log
          address just crossed a page boundary. *)

type fault_outcome =
  | Fixed  (** Tables repaired; the logger retries the record. *)
  | Drop  (** Cannot be repaired; the record is discarded and counted. *)

type t

val create :
  ?obs:Lvm_obs.Ctx.t -> ?hw:hw -> ?record_old_values:bool ->
  ?codec:Log_record.version -> ?coalesce_depth:int ->
  ?pmt_bits:int -> ?log_entries:int ->
  clock:int ref -> Physmem.t -> Bus.t -> Perf.t -> t
(** [create ~clock mem bus perf] builds a logger sharing the machine's CPU
    [clock] (faults and overloads advance it). [obs] is the machine's
    observability context: the logger traces logging faults, overload
    enter/exit and flushes, and feeds the ["logger.fifo_occupancy"]
    histogram at each admitted write. [pmt_bits] defaults to 15
    (32768 entries, 5-bit tags for a 1 GB physical space); [log_entries]
    defaults to 64. [record_old_values] enables Section 4.6's optional
    pre-image records (on-chip hardware only): each store emits a flagged
    record carrying the overwritten value before the ordinary record,
    doubling the logging traffic but enabling constant-time undo.

    [codec] selects the wire format of [Normal]-mode log streams:
    [Log_record.V0] (the default, the bare 16-byte records of the
    prototype) or [Log_record.V1] (the versioned codec — runs, deltas and
    pads; DMA and FIFO cost scale with the encoded size). [coalesce_depth]
    (default 0 = off) enables a [depth]-word associative coalescing buffer
    in front of the FIFOs, following the {!Squash} rule: repeated
    full-word writes to the same word are absorbed in place and the
    buffer drains in first-touch order when full or at a hard log sync
    ({!flush_coalesced}). Coalescing is incompatible
    with [record_old_values] (absorbed stores would lose their
    pre-images). With both features off, the datapath is exactly the
    seed's. Metrics [log.coalesce_*], [log.records_*] and [log.bytes_*]
    are registered only when a feature is on, so the default metrics
    snapshot is unchanged. *)

val hw : t -> hw
val records_old_values : t -> bool

val codec : t -> Log_record.version
val coalesce_depth : t -> int

val coalesce_pending : t -> int
(** Writes currently parked in the coalescing buffer. *)

val pending_log_bytes_bound : t -> int
(** Worst-case log bytes the coalescing buffer can still emit (version
    header and page pads included under [V1]) — the log-lifecycle layer
    adds this to its room reservations. *)

val flush_coalesced : t -> unit
(** Drain the coalescing buffer into the log in first-touch order. Called
    by the kernel on every hard log sync (commit/force/snapshot
    boundaries). A no-op when the buffer is empty. *)

val discard_coalesced : t -> unit
(** Drop buffered writes without logging them — the abort path, where the
    log tail is about to be truncated anyway. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val set_fault_handler : t -> (fault -> fault_outcome) -> unit
(** Install the kernel's logging-fault handler. The default handler drops. *)

val set_clock : t -> int ref -> unit
(** Repoint the logger at another CPU's clock. On a multi-CPU machine the
    logger snoops every processor's write-through traffic, but an overload
    interrupt suspends only the {e writing} process (Section 3.2) — so the
    machine points the logger at the active CPU's clock before each
    access. Single-CPU machines never call this. *)

val set_snoop_observer :
  t -> (paddr:int -> vaddr:int -> size:int -> value:int -> unit) option ->
  unit
(** Attach a second bus snoop that observes every logged write the logger
    services — the interprocessor consistency mechanism of Section 2.6:
    "the bus overhead for logging provides interprocessor consistency
    with no additional overhead; the consistency snoop simply monitors
    the logging bus traffic." The observer runs at zero cost to the
    writing processor. *)

val set_fault_plan : t -> Lvm_fault.Plan.t option -> unit
(** Attach (or clear) a fault plan. The logger consults it at two sites:
    [Logger_admit] on each Prototype-mode FIFO admission ([Fifo_overrun]
    forces the overload interrupt regardless of occupancy) and [Log_dma]
    when a record is about to be formed and DMA-ed ([Dma_fail] loses the
    record, counted in [Perf.log_records_lost]). A [Crash] at either site
    raises [Lvm_fault.Fault.Crashed]. [Machine.set_fault_plan] installs
    the plan here automatically. *)

(** {1 Kernel (privileged) table operations} *)

val load_pmt : t -> page:int -> log_index:int -> unit
(** Load the PMT entry for physical page [page], evicting whatever entry
    shared its slot. *)

val pmt_lookup : t -> page:int -> int option
(** Current log index for [page], if its PMT entry is present and valid. *)

val invalidate_pmt : t -> page:int -> unit

val set_log_entry : t -> index:int -> mode:mode -> addr:int -> unit
(** Make log table entry [index] valid, writing its next record at
    physical address [addr]. *)

val retarget_log_entry : t -> index:int -> addr:int -> unit
(** Re-point a log table entry at a new next-record address without
    touching its mode — how the log-lifecycle layer switches the logger
    onto the next extent of a ring (the entry's mode was fixed when the
    log segment was first armed). Marks the entry valid. *)

val invalidate_log_entry : t -> index:int -> unit

val log_entry : t -> index:int -> (mode * int) option
(** Mode and next-record address of a valid entry. *)

val log_entries : t -> int

(** {1 Datapath} *)

val snoop :
  ?old_value:int -> t -> paddr:int -> vaddr:int -> size:int -> value:int ->
  unit
(** Observe a logged write on the bus: check FIFO pressure (overload
    interrupt or on-chip stall, possibly advancing the shared clock) and
    run the entry through the pipeline, booking its DMA on the bus's
    low-priority track. The machine calls this from its write path when
    the page mapping asserts the "logged" bus signal. *)

val busy : t -> bool
(** Whether the logger is still draining records at the current clock. *)

val occupancy : t -> int
(** FIFO occupancy as of the current clock (for tests and benches). *)

val drained_at : t -> int
(** Cycle at which the FIFOs will be empty absent new writes. *)

val flush : t -> unit
(** Advance the clock until the FIFOs are empty (used by benches between
    measurements so overload state does not leak across runs). *)
