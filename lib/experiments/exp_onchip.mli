(** Ablation A (Section 4.6): prototype bus logger versus on-chip logging.

    Reruns the Figure 11 loop under both hardware models. With logging
    support in the CPU's VM unit there are no FIFO overload interrupts —
    the processor stalls briefly like any write-through writer — so the
    cost of a logged write stays near the cost of an unlogged one even at
    zero compute cycles, and per-region logs log virtual addresses.

    Target: at c = 0 and c = 30 on-chip logging takes no overload and is
    no slower (by more than 0.01 cycles) than the prototype, which
    overloads at c = 0. *)

val run : Format.formatter -> Report.outcome
