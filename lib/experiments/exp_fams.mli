(** FAMS vs RVM vs RLVM: the same durable-batch workload — 64 batches of
    8 word stores to fixed offsets in an 8 KiB region, each batch made
    durable — through the three programming models:

    - RVM: begin / per-write [set_range] annotation + write / commit;
    - RLVM: begin / plain writes / commit (the hardware log builds the
      redo);
    - FAMS: plain writes / [snapshot] (no bracketing at all).

    Records [BENCH_6.json]. *)

val run : Format.formatter -> Report.outcome
