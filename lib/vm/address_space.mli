(** Address spaces: per-process page tables plus the set of bound regions.

    Translation state is a software page table mapping virtual page number
    to a page-table entry carrying the frame and the per-page mode bits
    the hardware needs (write-through, logged, write-protected). Entries
    are installed lazily by the kernel's page-fault handler. *)

type pte = {
  mutable frame : int;
  mutable write_through : bool;
  mutable logged : bool;
  mutable protected_ : bool;
  mutable dirty : bool;
  region : Region.t;
  seg_page : int;  (** Index of the backing page within the segment. *)
}

type t

val make : id:int -> t
val id : t -> int

val lookup : t -> vpage:int -> pte option

val find : t -> vpage:int -> pte
(** {!lookup} without the option, for the per-access path.
    @raise Not_found if [vpage] has no entry. *)

val install : t -> vpage:int -> pte -> unit
val remove : t -> vpage:int -> unit

val regions : t -> (int * Region.t) list
(** Bound regions as [(base vaddr, region)], sorted by base. *)

val find_region : t -> vaddr:int -> (int * Region.t) option
(** The bound region containing [vaddr], with its base. *)

val bind : t -> Region.t -> vaddr:int option -> int
(** Bind a region at [vaddr] (page-aligned) or at a kernel-chosen address
    when [None]. Returns the base address.
    @raise Error.Lvm_error on overlap or misalignment. *)

val unbind : t -> Region.t -> unit
(** Remove the region's binding and all its page-table entries. *)
