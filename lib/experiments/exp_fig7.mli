(** Figure 7: LVM versus copy-based checkpointing in the "simulated"
    simulation.

    Speedup (copy-based elapsed time / LVM elapsed time) as a function of
    compute cycles per event [c], for the paper's four curves
    (w,s) ∈ {(1,32), (2,64), (4,128), (8,256)}. The paper reports speedups
    from a few percent at large [c] up to large factors at small [c],
    biggest for large objects, with LVM's advantage collapsing at small
    [c] and large [w] when the logger overloads.

    Target: from c = 256 up, every curve's speedup falls with [c], ending
    in (0.98, 1.15) at c = 8192, and s = 256 beats s = 32 at c = 256; at
    c = 64 the w = 8 logger overloads and its speedup drops below
    w = 1's. The first three are the "shape" targets, the last two the
    "overload collapse" ones; each missed line starts with its group's
    name. *)

val run : Format.formatter -> Report.outcome
