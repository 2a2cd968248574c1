(** Regions: contiguous virtual address ranges mapping a segment.

    A region maps [size] bytes of a segment starting at [seg_offset] and
    can be bound to an address space at a page-aligned virtual address. A
    region is {e logged} when a log segment has been declared for it
    (Table 1, [Region::log]); logging can also be dynamically enabled and
    disabled without touching the program (Section 2.7). *)

type t

val make : id:int -> segment:Segment.t -> seg_offset:int -> size:int -> t
(** Internal constructor used by the kernel. [seg_offset] must be
    page-aligned, and [seg_offset + size] must fit in the segment. *)

val id : t -> int
val segment : t -> Segment.t
val seg_offset : t -> int
val size : t -> int
val pages : t -> int

val log : t -> Segment.t option
(** This region's log segment, if one has been declared. *)

val set_log : t -> Segment.t option -> unit

val set_logging_enabled : t -> bool -> unit
(** Dynamic switch: a region with a log segment only logs while enabled. *)

val is_logged : t -> bool
(** [log] present and logging enabled. *)

val binding : t -> (int * int) option
(** [(address-space id, base virtual address)] when bound. *)

val set_binding : t -> (int * int) option -> unit

val write_protected : t -> bool
(** Whole-region write protection (the Li/Appel checkpointing baseline,
    Section 5.1, takes a fault on the first write to each page). *)

val set_write_protected : t -> bool -> unit

val seg_page_of_vaddr : t -> base:int -> vaddr:int -> int
(** Segment page index backing [vaddr], given the region's bound [base]. *)
