(** Object placement in logged and unlogged regions (Section 2.7).

    LVM attaches logging to memory regions, so "a given data type can be
    instantiated in both logged and unlogged memory regions" — the paper
    suggests an overloaded [new] operator choosing the region per
    instance. This module is that allocator: two bump arenas, one over a
    logged region and one over an unlogged region, with allocation
    returning the object's virtual address. Allocate rollback-worthy or
    persistent objects in the logged arena and scratch state in the
    unlogged one; only the former generate log records. *)

type t

val create :
  ?logged_bytes:int -> Lvm_vm.Kernel.t -> Lvm_vm.Address_space.t -> t
(** The logged arena defaults to 16 pages, the unlogged arena is 16
    pages; the logged arena's log segment is created automatically (16
    pages, extendable via {!log}). *)

val log : t -> Lvm_vm.Segment.t
(** The logged arena's log segment. *)

val logged_region : t -> Lvm_vm.Region.t

exception Arena_full

val alloc : t -> logged:bool -> words:int -> int
(** Allocate a word-aligned object, returning its virtual address.
    @raise Arena_full when the chosen arena is exhausted. *)

val allocated_words : t -> logged:bool -> int

val reset : t -> logged:bool -> unit
(** Drop every object in the arena (bump allocators free in bulk). The
    logged arena's log is not touched — records describe history, and
    truncation is the client's policy. *)

val is_logged_addr : t -> int -> bool
(** Whether a virtual address lies in the logged arena — the audit-style
    placement check. *)
