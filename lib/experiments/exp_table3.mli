(** Table 3: performance of recoverable memory with and without LVM.

    Single recoverable write: 3515 cycles under Coda-style RVM (set_range
    bookkeeping, old-value save, redo record) vs ~16 cycles under RLVM (a
    plain logged store). TPC-A over a RAM-disk log: 418 vs 552
    transactions per second — most of the gap is bounded by commit and
    log-truncation costs, which LVM does not reduce. Target: both single
    writes exact; both rates within 10% of the paper's; RVM in-transaction
    time between 18% and 32%, RLVM's under 3%. *)

val run : Format.formatter -> Report.outcome
