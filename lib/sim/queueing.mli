(** A closed tandem queueing network over TimeWarp.

    A second simulation application (besides {!Phold}) in the style of the
    discrete-event models the paper's Section 2.4 targets: [stations]
    single-server FIFO queues arranged in a ring, with a fixed population
    of customers flowing through them. Each station keeps its queue
    length, busy flag, served count and a rolling checksum in logged
    state, so rollback correctness is visible in the final state vector.

    Event payloads encode (kind, customer): an [Arrival] either seizes the
    idle server — scheduling its own [Service] completion — or joins the
    queue; a [Service] completion dispatches the customer to the next
    station and starts the next queued customer if any. All service and
    transfer times are content-hashed, so the committed execution is
    identical for any scheduler count. *)

val app : stations:int -> seed:int -> Scheduler.app

val arrivals :
  stations:int -> customers:int -> seed:int -> (int * int * int) list
(** Each customer's first arrival as [(time, dst, payload)], for any
    engine ({!Timewarp.inject}, {!Conservative.inject}). *)

val inject_customers : Timewarp.t -> stations:int -> customers:int ->
  seed:int -> unit
(** Inject {!arrivals} into a TimeWarp engine. *)

val total_served : Timewarp.t -> stations:int -> int
val customers_present : Timewarp.t -> stations:int -> int
(** Customers currently queued or in service across all stations (the
    rest are in flight as events). *)
