(** Hash tables keyed by [int] with the identity hash: a lookup never
    calls the polymorphic [caml_hash], and consecutive keys (page
    numbers, transaction ids) fill consecutive buckets. *)

include Hashtbl.S with type key = int
