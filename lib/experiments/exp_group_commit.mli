(** Group commit on vs off: the identical 64-transaction RLVM stream
    with the WAL forced on every commit (group 1, the paper's RVM
    behaviour) and once per four commits (group 4). Reports cycles per
    transaction and [rvm.wal_forces] for each. *)

val run : Format.formatter -> Report.outcome
