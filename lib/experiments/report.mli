(** Formatting helpers for the experiment reports: section banners,
    aligned tables, and paper-vs-measured comparison rows. *)

val section : Format.formatter -> string -> unit
val subsection : Format.formatter -> string -> unit

val table : Format.formatter -> header:string list -> string list list -> unit
(** Render rows under a header with aligned columns. *)

val paper_row : label:string -> paper:string -> measured:string -> string list
(** A three-column comparison row for {!table} with header
    [["quantity"; "paper"; "measured"]]. *)

val comparison :
  Format.formatter -> (string * string * string) list -> unit
(** A full paper-vs-measured table from (label, paper, measured) rows. *)

val note : Format.formatter -> string -> unit

val fi : int -> string
val ff : ?decimals:int -> float -> string

(** What one experiment run leaves besides its printed report. *)
type outcome = {
  blob : string option;
      (** The run's figures as one enveloped JSON line (a committed
          [BENCH_n.json] file), for experiments that record one. *)
  missed : string list;
      (** Targets the run fell short of, one line each; [[]] passes. *)
}

val passed : outcome
(** No JSON record, no target missed: every paper table and figure. *)
