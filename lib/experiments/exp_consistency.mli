(** Ablation C (Section 2.6): log-based consistency versus Munin-style
    twin/diff.

    A producer writes [writes] words spread over [spread_pages] pages of a
    write-shared segment, then releases. Twin/diff pays a protection
    fault, a page copy and a whole-page word-by-word comparison per
    touched page; log-based consistency streams exactly the logged
    updates. The paper expects log-based to win when updates are small
    relative to the consistency unit.

    Target: for one write to one page, log-based release costs under a
    quarter of twin/diff's, and the log/twin release ratio is higher in the
    densest pattern (1024 writes over 4 pages) than there. *)

val run : Format.formatter -> Report.outcome
