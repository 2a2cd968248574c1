(** Ablation D: end-to-end TimeWarp with LVM vs copy-based state saving.

    The full optimistic engine (stragglers, anti-messages, GVT, CULT) runs
    the PHOLD workload with large objects and spatial locality — the
    sophisticated-simulation regime the paper argues for (Section 2.7) —
    under both state-saving strategies and several scheduler counts. Both
    strategies commit the identical sequential execution; the comparison
    is processor cycles.

    Target: at 4 schedulers every engine matches the sequential run, both
    optimistic engines commit the same events, and LVM-optimistic
    finishes in fewer cycles than the conservative engine while
    copy-optimistic takes more. *)

val run : Format.formatter -> Report.outcome
