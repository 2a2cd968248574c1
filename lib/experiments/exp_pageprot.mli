(** Ablation B (Section 5.1): log-generation technique comparison.

    Forward-progress cost per event of the synthetic simulation under the
    three state-saving techniques: copy-based (conventional TimeWarp),
    page-protect checkpointing (Li/Appel: write-protect at each
    checkpoint, fault-and-copy each first-written page), and LVM. The
    paper argues per-write page-protect logging is impractical — a write
    fault costs thousands of cycles — which is why hardware support is
    needed; the numbers here show where each technique's cost goes.

    Target: at c = 512, s = 256, w = 4 LVM costs the fewest cycles per
    event and page-protect takes protection faults. *)

val run : Format.formatter -> Report.outcome
