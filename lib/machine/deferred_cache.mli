(** Second-level cache support for deferred copy (Section 3.3).

    The prototype's 4 MB second-level cache associates a source address with
    each cache line of a deferred-copy destination page: reads of a line not
    yet written are satisfied from the source, writes go to the destination
    and re-point the line at itself. [reset] re-points every line of a page
    back at the source and invalidates modified lines, so a logical copy
    costs no copying.

    This module keeps, per mapped destination physical page, the source
    physical address and a 256-bit "line modified" set plus a page dirty
    bit. Data always lives in physical memory: when a line is first
    modified, the 16 source bytes are brought into the destination frame so
    that partial-line writes merge correctly, exactly as the hardware loads
    the line from the source page before updating it. *)

type t

val create : ?obs:Lvm_obs.Ctx.t -> Physmem.t -> Perf.t -> t
(** [?obs] is the machine's observability context (the cache feeds the
    ["dc.dirty_lines"] histogram of modified-line counts at reset); when
    omitted a private one is created. *)

val map : t -> dst_page:int -> src_addr:int -> unit
(** Declare physical page [dst_page] a deferred-copy destination whose
    line [i] is initialized from [src_addr + 16 * i]. [src_addr] must be
    line-aligned, and [dst_page] a frame of the memory (raises
    [Invalid_argument] otherwise). Remapping an already-mapped page resets
    its state. Page state is held in an array indexed by frame number,
    grown to the highest page mapped. *)

val unmap : t -> dst_page:int -> unit
val is_mapped : t -> dst_page:int -> bool

val page_dirty : t -> dst_page:int -> bool
(** The per-page dirty bit the reset optimization checks: true once any
    line of the page has been modified since the map or last reset. *)

val resolve_read : t -> paddr:int -> int
(** [resolve_read t ~paddr] is the physical address actually holding the
    current datum for [paddr]: [paddr] itself if the page is unmapped or
    the line has been modified, otherwise the corresponding source
    address. *)

val note_write : t -> paddr:int -> unit
(** Record that [paddr]'s line is being written. On the first write to a
    line this copies the 16 source bytes into the destination frame. Call
    before performing the store. No-op on unmapped pages. *)

val reset_page : t -> dst_page:int -> was_dirty:bool ref -> int
(** Clear the modified set and the dirty bit of [dst_page], returning the
    cycle cost: the per-page dirty check plus, if the page was dirty, the
    per-line source-address reset and invalidation sweep. Sets [was_dirty]
    so the caller can also invalidate first-level lines. *)

val modified_lines : t -> dst_page:int -> int list
(** Line indices of destination frame [dst_page] written since it was
    mapped (or last reset), ascending; empty when the frame is not a
    deferred-copy destination. The modification set a failure-atomic
    snapshot must persist. *)

val mapped_pages : t -> int list
(** Destination pages currently mapped (ascending, for tests). *)
