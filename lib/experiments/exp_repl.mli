(** Replication failover and catch-up, in simulated ticks, over an
    [Lvm_repl] cluster with two standbys on a clean transport:

    - failover: replicate half of a 64-transaction workload, fail-stop
      the primary with frames still in flight, promote the furthest-
      ahead standby and finish the workload on it — reporting the
      kill-to-serving latency and the ticks for the survivors to
      reconverge;
    - catch-up: fully partition one standby, commit the second half of
      the workload without it, heal, and report the bytes it was behind
      over the ticks it took to drain them.

    Records [BENCH_7.json]. *)

val run : Format.formatter -> Report.outcome
