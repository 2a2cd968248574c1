(** Registry of all reproduction experiments: the paper's tables and
    figures, the ablations, and the comparisons for every layer built
    beyond the paper (store, FAMS, replication, hot shards, log diet,
    MVCC), each of which records one committed [BENCH_n.json] file. *)

type t = {
  id : string;  (** Short name for the CLI, e.g. "table2". *)
  description : string;
  run : quick:bool -> Format.formatter -> Report.outcome;
      (** Print the report. [quick] shrinks the paper sweeps; the
          comparisons always run at their recorded size. *)
}

val all : t list
val find : string -> t option

val run_all : ?quick:bool -> Format.formatter -> string list
(** Run every experiment in order; the missed targets, each prefixed
    with its experiment's id. *)
