(** MVCC snapshot reads: a 95/5 read-heavy Zipfian(1.1) mix of 2000
    operations at 1 and 4 shards, the reads served two ways — by the
    shard workers (each read is scheduled like a transaction on the
    owning shard's CPU, so under skew the hot shard serializes them
    behind the writes) and from log-derived MVCC snapshots on four
    virtual reader tasks (wait-free version-chain lookups on the
    readers' own clocks). A reader-scaling leg re-runs the snapshot
    point at 4 shards with 1/2/4 readers.

    Targets: snapshot-read throughput at 4 shards is at least 2x the
    worker-read point, and adding readers does not lose throughput.
    Records [BENCH_10.json]. *)

val run : Format.formatter -> Report.outcome
