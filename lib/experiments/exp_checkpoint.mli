(** Ablation E: checkpoint/rollback primitives compared (Sections 4.4 and
    5.1).

    For one checkpoint-modify-rollback cycle over a segment with a
    varying fraction of pages dirtied, the three mechanisms:

    - [bcopy]: copy the whole segment back (flat cost);
    - deferred copy: [resetDeferredCopy] (per-dirty-page second-level
      line sweep; checkpoint establishment is free);
    - Li/Appel page-protect: write-protect at checkpoint, fault + page
      copy on first writes, restore by remapping (restore is nearly free,
      but the faults and copies are paid up front on the mutator's
      critical path).

    The paper's point: deferred copy wins for rollback-heavy optimistic
    execution because it needs no faults, and page-protect cannot provide
    per-write logging at all.

    Target: bcopy costs the same with 1 and 32 of 32 pages dirty; the
    deferred-copy restore grows more than 16-fold from 1 to 32, beating
    bcopy at 1 and losing at 32; the Li/Appel restore stays under 2000
    cycles, while its mutator pays over 100 times deferred copy's at 1
    dirty page. *)

val run : Format.formatter -> Report.outcome
