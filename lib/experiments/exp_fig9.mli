(** Figure 9: execution time of [resetDeferredCopy] versus [bcopy].

    For 32 KB, 512 KB and 2 MB segment pairs, the time to reset the
    deferred copy as a function of how much of the segment is dirty,
    against the flat cost of copying the whole segment with [bcopy]. The
    paper finds reset wins whenever less than about two-thirds of the
    segment is dirty.

    Target: the 32 KB and 512 KB crossovers lie in (0.55, 0.80); on the
    32 KB segment a clean reset costs under 0.5 kcycles, the reset cost
    from 8 to 16 dirty KB is within 15% of a quarter of the all-dirty
    cost, and bcopy costs the same at 0 and 32 dirty KB. The first is the
    "crossover band" target, the rest the "reset linear" ones; each missed
    line starts with its group's name. *)

val run : Format.formatter -> Report.outcome
