(** First-level data cache timing model.

    An 8-kilobyte direct-mapped, physically-tagged cache with 16-byte
    lines, matching the 68040's split I/D cache (Section 4.1; we model the
    data side only). The cache determines the cycle cost of each access:

    - read or write-back-mode write hit: 1 cycle;
    - miss: line fill over the bus, plus a victim write-back if dirty;
    - write-through-mode write: 6 cycles total (5 on the bus), no allocate;
      the data is pushed onto the bus where the logger can snoop it.

    Data contents are not stored here — physical memory is always kept
    current by the machine — so this module tracks only tags and charges
    cycles. [access] returns the new CPU local time. *)

type t

val create : ?obs:Lvm_obs.Ctx.t -> Bus.t -> Perf.t -> t
(** [?obs] is the machine's observability context (the cache feeds the
    ["l1.write_run"] histogram of consecutive write-through run lengths);
    when omitted a private one is created. *)

val lines : t -> int

val read : t -> now:int -> paddr:int -> int
(** Charge a read of any size within one line at [paddr]; returns the CPU
    time after the access. *)

val write_back_mode_write : t -> now:int -> paddr:int -> int
(** Charge a write to a copy-back page. Allocates on miss. *)

val write_through : t -> now:int -> paddr:int -> int
(** Charge a word (or smaller) write to a write-through page. The line is
    updated if present but never allocated; the write always appears on
    the bus. *)

val invalidate_page : t -> page:int -> unit
(** Drop every line of the given physical page without write-back (used by
    [reset_deferred_copy]). Charges no cycles; the caller accounts for the
    invalidation sweep. *)

val invalidate_line : t -> paddr:int -> bool
(** Drop the single line holding [paddr] if resident, without write-back;
    returns whether a line was dropped. This is the write-invalidate snoop
    action: when another CPU's write-through for this address appears on
    the bus, stale copies in other first-level caches are invalidated
    (Section 2.6 — the same bus traffic the logger snoops keeps the
    processors consistent). Charges no cycles; the snoop rides the
    already-charged bus transaction. *)

val contains_line : t -> paddr:int -> bool
(** Whether the line holding [paddr] is resident (for tests). *)
