(** Figures 11 and 12: total cost of a logged write and overload events.

    One logged write per iteration (l=1, w=0), compute cycles swept over
    [0..630]: Figure 11 plots the average total cycles per iteration with
    and without logging, Figure 12 the overload events per 1000
    iterations. The paper reports each overload costs more than 30,000
    cycles — so the time per iteration {e decreases} as computation per
    loop increases — and that overload is avoided once there is no more
    than one logged write per ~27 compute cycles on average.

    Target: at c = 0 the logger overloads, each overload costing more
    than 30,000 cycles, and an iteration costs more than at c = 27, where
    no overload occurs; at c = 60 logging adds under 10 cycles per
    iteration. *)

val run : Format.formatter -> Report.outcome
