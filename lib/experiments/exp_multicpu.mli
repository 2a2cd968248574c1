(** Multi-CPU sweep: the shared-bus dynamics the paper's 4-processor
    ParaDiGM prototype exhibits but a single simulated CPU cannot —
    bus-contention cycles growing with processor count, and the logger
    FIFO overload (Figures 11-12) setting in at a {e lower per-CPU}
    write rate when four write streams share one logger. No target is
    gated. *)

val run : Format.formatter -> Report.outcome
