type t = {
  id : string;
  description : string;
  run : Format.formatter -> Report.outcome;
}

let all =
  [
    { id = "table2"; description = "Table 2: basic machine performance";
      run = Exp_table2.run };
    { id = "table3"; description = "Table 3: RVM vs RLVM, TPC-A";
      run = Exp_table3.run };
    { id = "fig7";
      description = "Figure 7: LVM vs copy-based checkpointing";
      run = Exp_fig7.run };
    { id = "fig8"; description = "Figure 8: effect of writes per event";
      run = Exp_fig8.run };
    { id = "fig9"; description = "Figure 9: resetDeferredCopy vs bcopy";
      run = Exp_fig9.run };
    { id = "fig10"; description = "Figure 10: CPU cost of logged writes";
      run = Exp_fig10.run };
    { id = "fig11-12";
      description = "Figures 11-12: overload cost and frequency";
      run = Exp_fig11.run };
    { id = "onchip";
      description = "Ablation A: prototype vs on-chip logging (Sec 4.6)";
      run = Exp_onchip.run };
    { id = "state-saving";
      description = "Ablation B: copy vs page-protect vs LVM (Sec 5.1)";
      run = Exp_pageprot.run };
    { id = "consistency";
      description = "Ablation C: log-based consistency vs twin/diff (Sec 2.6)";
      run = Exp_consistency.run };
    { id = "timewarp";
      description = "Ablation D: TimeWarp end-to-end, LVM vs copy saving";
      run = Exp_timewarp.run };
    { id = "checkpoint";
      description =
        "Ablation E: rollback primitives (bcopy/deferred-copy/Li-Appel)";
      run = Exp_checkpoint.run };
    { id = "multicpu";
      description = "Multi-CPU: bus contention and logger overload, 1-4 CPUs";
      run = Exp_multicpu.run };
    { id = "group-commit";
      description = "RLVM group commit: WAL forced every 1 vs 4 commits";
      run = Exp_group_commit.run };
    { id = "store";
      description = "Sharded store: 1 vs 4 shards with 2PC (BENCH_5)";
      run = Exp_store.run };
    { id = "fams";
      description = "FAMS snapshots vs RVM vs RLVM batches (BENCH_6)";
      run = Exp_fams.run };
    { id = "repl";
      description = "Replication failover and catch-up (BENCH_7)";
      run = Exp_repl.run };
    { id = "hotshard";
      description = "Hot shards: uniform/Zipfian/split, 1-8 shards (BENCH_8)";
      run = Exp_hotshard.run };
    { id = "logdiet";
      description = "Log diet: V0/V1 codec x coalescing (BENCH_9)";
      run = Exp_logdiet.run };
    { id = "mvcc";
      description = "MVCC snapshot vs worker reads, 95/5 Zipfian (BENCH_10)";
      run = Exp_mvcc.run };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let run_all ppf =
  List.concat_map
    (fun e -> List.map (fun m -> e.id ^ ": " ^ m) (e.run ppf).Report.missed)
    all
