(** Table 2: basic machine performance.

    Word write-through 6 cycles (5 bus), cache block write 9 cycles (8
    bus), log-record DMA 18 cycles (8 bus). Measured by issuing each
    operation on an otherwise idle machine and reading the cycle and
    bus-occupancy deltas. Target: all six figures exact. *)

val run : Format.formatter -> Report.outcome
