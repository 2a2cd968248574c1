(** Sharded-store scaling: the same seeded 200-transaction mix through
    [Lvm_store] at one shard and at four, cross-shard two-phase commits
    and all. The figure shards are supposed to buy is cycles-per-
    transaction wall-clock throughput. Records [BENCH_5.json]. *)

val run : Format.formatter -> Report.outcome
