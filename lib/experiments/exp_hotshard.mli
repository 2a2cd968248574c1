(** Hot-shard survival: 1200 single-write transactions at 1/2/4/8
    shards under three key distributions — uniform, Zipfian(1.1) with
    the hot ranks clustered on shard 0, and the same Zipfian mix with
    the dynamic splitter on. Skew serializes the run on the hot shard;
    the splitter's job is to buy the lost throughput back by fanning the
    hot buckets out mid-run.

    Target: at 4 shards, Zipfian-with-split cycles/txn recovers at least
    0.70 of uniform. Records [BENCH_8.json]. *)

val run : Format.formatter -> Report.outcome
