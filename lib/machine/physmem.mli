(** Simulated physical memory: [frames] 4-kilobyte page frames with a
    simple free-frame allocator. A frame gets its 4 KB of host memory the
    first time it is written; a frame never written reads as zeros, and
    the table of frames reaches only the highest frame written, so a
    large machine costs the host only the frames it touches. To every
    caller the memory behaves as one flat byte array: an access or a blit
    that straddles two frames works exactly as it would in flat memory.

    All values are 32-bit machine words stored little-endian; reads and
    writes of bytes, halfwords and words are supported because log records
    carry a size field. This module charges no cycles — timing belongs to
    the cache, bus and logger models. *)

type t

val create : frames:int -> t
(** [create ~frames] makes a memory of [frames] 4 KB page frames, all free
    and all reading as zero. Frames are handed out in ascending order,
    then most-recently-freed first. *)

val frames : t -> int
val bytes : t -> int

exception Out_of_frames

val alloc_frame : t -> int
(** Allocate a free frame and return its frame (page) number. The frame is
    zero-filled. @raise Out_of_frames when none is free. *)

val free_frame : t -> int -> unit
(** Return a frame to the free list. Freeing a free frame is an error. *)

val frames_free : t -> int

(** {1 Access by physical byte address} *)

val read_word : t -> int -> int
(** [read_word t paddr] reads the 32-bit word at word-aligned [paddr].
    The result is in \[0, 2{^32}). *)

val read_word_raw : t -> int -> int
(** {!read_word} without its range and frame-straddle checks, for a scan
    that reads many aligned words it already knows lie in memory (the
    log replay). An untouched frame reads as zero and stays untouched. *)

val write_word : t -> int -> int -> unit
(** [write_word t paddr v] stores the low 32 bits of [v] at [paddr]. *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit
val read_half : t -> int -> int
val write_half : t -> int -> int -> unit

val read_sized : t -> int -> size:int -> int
(** [read_sized t paddr ~size] reads [size] bytes (1, 2 or 4). *)

val write_sized : t -> int -> size:int -> int -> unit

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Raw byte copy inside physical memory (no cycle accounting). *)

val blit_to_bytes : t -> src:int -> Bytes.t -> pos:int -> len:int -> unit
val blit_of_bytes : t -> Bytes.t -> pos:int -> dst:int -> len:int -> unit

val zero_frame : t -> int -> unit
(** Zero-fill the given frame number. *)
