(** A deterministic bounded ring of cycle-stamped {!Event} records.

    The ring keeps the most recent [capacity] events; older ones are
    dropped (and counted). Because events and cycle stamps are pure
    functions of the simulated machine's inputs, two runs with the same
    seed produce byte-identical traces — the determinism suite asserts
    exactly that. *)

type t

type entry = { at : int; event : Event.t }

val create : ?capacity:int -> unit -> t
(** Default capacity 4096 entries. *)

val capacity : t -> int

val record : t -> at:int -> Event.t -> unit

val entries : t -> entry list
(** Retained entries, oldest first. *)

val iter : t -> f:(at:int -> Event.t -> unit) -> unit

val length : t -> int
(** Retained entries. *)

val total : t -> int
(** Entries ever recorded. *)

val dropped : t -> int
(** [total - length]. *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
