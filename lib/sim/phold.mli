(** PHOLD: the standard synthetic workload for optimistic simulators.

    A fixed population of event tokens bounces between objects; each event
    updates a few state words (counter, checksum, rolling hash) and
    forwards the token to a pseudo-random object at a pseudo-random future
    time. All randomness is a pure hash of event content, so the committed
    execution — and the final state vector — is identical for any number
    of schedulers, which the sequential-equivalence tests rely on. *)

val app :
  ?object_words:int -> ?max_delay:int -> ?compute:int -> ?locality_pct:int ->
  objects:int -> seed:int -> unit -> Scheduler.app
(** [object_words >= 4] (default 8); [compute] is the modelled CPU work
    per event in cycles (default 200); [locality_pct] is the percentage of
    events an object sends to itself (default 0, fully uniform — higher
    locality means fewer cross-scheduler stragglers). *)

val population :
  objects:int -> population:int -> seed:int -> (int * int * int) list
(** The [population] initial token events as [(time, dst, payload)],
    for any engine ({!Timewarp.inject}, {!Conservative.inject}). *)

val inject_population :
  Timewarp.t -> objects:int -> population:int -> seed:int -> unit
(** Inject {!population} into a TimeWarp engine. *)

val hash : int -> int -> int -> int -> int
(** The content hash used for all PHOLD randomness (30-bit result). *)
