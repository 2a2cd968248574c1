(** Figure 10: CPU cost of logged writes.

    Cycles per write for clusters of 2, 4 and 8 writes per iteration, with
    and without logging, as compute cycles per iteration vary. For small
    [c] the logger is overloaded and logged writes are far more expensive;
    on the flat portion the difference between logged and unlogged is the
    cost of write-through, which grows with the burst size.

    Target: at c = 512 a logged write costs more than an unlogged one,
    and the gap does not shrink (by more than 0.01 cycles) from 2 to 4 to
    8 writes. *)

val run : Format.formatter -> Report.outcome
