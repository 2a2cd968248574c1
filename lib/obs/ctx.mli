(** The per-machine observability context.

    One [Ctx.t] is shared by every component of a simulated machine (bus,
    caches, logger, VM kernel, simulation scheduler): it holds the event
    {!Trace} ring, the {!Counter} registry and the {!Histogram}s, and it
    knows how to assemble a full counter {!Snapshot} (registry counters
    plus any enrolled providers, such as the machine's hardware [Perf]
    record). Newly created contexts announce themselves to an attached
    {!Collector}, which is how the CLI aggregates metrics from machines
    created deep inside an experiment. *)

type t

val create : unit -> t

val trace : t -> Trace.t
val event : t -> at:int -> Event.t -> unit

val counter : t -> string -> Counter.counter
(** Find-or-create in the context's registry. *)

val histogram : t -> name:string -> bounds:int array -> Histogram.t
(** Find-or-create; an existing histogram keeps its original bounds. *)

val histograms : t -> Histogram.t list
(** Registration order. *)

val add_provider : t -> (unit -> (string * int) list) -> unit
(** Enroll an external counter source (e.g. the machine's perf record);
    providers are read first when building {!snapshot}. *)

val snapshot : t -> Snapshot.t

(**/**)

val on_create : (t -> unit) option ref
(** Internal hook used by {!Collector}. *)
