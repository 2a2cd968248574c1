(** Logging-bandwidth diet: a saturation loop and an RLVM transaction
    workload through the four corners of coalescing off/on x the V0
    (raw 16-byte) / V1 (run + delta) record codecs. The overload leg
    drives tight logged bursts with hot rewrites straight at the logger
    FIFOs; the WAL leg runs 64 transactions with truncation gated off and
    measures WAL bytes per transaction plus a full recovery replay.

    Targets: V1 with coalescing overloads less than both V0 and the
    seed's 261, cuts WAL bytes/txn by at least 30%, and every corner
    recovers a byte-identical image. Records [BENCH_9.json]. *)

val run : Format.formatter -> Report.outcome
