(** Write squashing: the one coalescing rule of the log's write path.

    Whole aligned words park, and a repeated write to a parked word
    replaces it in place: the last value wins and the word keeps its
    first-touch position. Parked writes leave in first-touch order. Any
    other write (sub-word or unaligned) first flushes what is parked, so
    writes to overlapping bytes never change their relative order.

    The logger's coalescing buffer uses it with its depth bound; the V1
    WAL redo encoder (RLVM commits, FAMS snapshots) uses it unbounded. *)

type 'w t
(** Parked writes of type ['w], keyed by word address. *)

type outcome =
  | Parked  (** The write parked in a new slot. *)
  | Absorbed  (** The write replaced a parked write to the same word. *)
  | Bypass
      (** The write cannot park: anything parked was flushed first, and
          the caller emits this write itself. *)

val create : depth:int -> 'w t
(** At most [depth] (at least 1) words park; filling the last slot
    flushes. [max_int] has no bound. *)

val write :
  'w t -> addr:int -> size:int -> 'w -> flush:('w list -> unit) -> outcome
(** Offer one [size]-byte write at [addr]. [flush] receives the parked
    writes, in first-touch order, whenever they must leave. *)

val drain : 'w t -> 'w list
(** Take every parked write, in first-touch order. *)

val pending : 'w t -> int
(** Writes currently parked. *)
