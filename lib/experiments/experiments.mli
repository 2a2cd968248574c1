(** Registry of all reproduction experiments: the paper's tables and
    figures, the ablations, and the comparisons for every layer built
    beyond the paper (store, FAMS, replication, hot shards, log diet,
    MVCC), each of which records one committed [BENCH_n.json] file. *)

type t = {
  id : string;  (** Short name for the CLI, e.g. "table2". *)
  description : string;
  run : Format.formatter -> Report.outcome;
      (** Print the report and check the experiment's targets, at its one
          size. *)
}

val all : t list
val find : string -> t option

val run_all : Format.formatter -> string list
(** Run every experiment in order; the missed targets, each prefixed
    with its experiment's id. *)
