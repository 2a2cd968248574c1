(** A conservative (barrier-synchronous) simulation engine.

    The paper frames optimistic execution as speculative work done
    "as an alternative to going idle waiting for the bottleneck process,
    as would occur in conservative simulation" (Section 2.4). This engine
    is that alternative: schedulers only process events at the current
    global minimum time and barrier-synchronize between steps — no
    rollback, no state saving, but every processor idles up to the
    slowest one each step.

    It reuses {!Scheduler.app}, so any workload runs under either engine
    and must produce the identical committed state (the engines' results
    are compared in tests and in the optimism ablation). *)

type result = {
  events_processed : int;
  steps : int;  (** Barrier rounds executed. *)
  elapsed_cycles : int;
      (** Wall-clock: every barrier advances all processors to the
          slowest one. *)
  busy_cycles : int;  (** Sum of useful (non-idle) cycles. *)
}

type t

val create : n_schedulers:int -> app:Scheduler.app -> unit -> t
(** 800 cycles are charged to every processor at each synchronization
    step: the global-minimum computation and barrier messaging that
    conservative engines pay in place of rollback. *)

val inject : t -> time:int -> dst:int -> payload:int -> unit
val run : t -> end_time:int -> result
val read_state : t -> obj:int -> word:int -> int
val state_vector : t -> int array
