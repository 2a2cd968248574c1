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

val claims : (bool * string) list -> outcome
(** The outcome of a run that records no JSON: the targets among
    [(met, target)] pairs that were not met. *)

val group : string -> (bool * string) list -> (bool * string) list
(** [group name targets] prefixes each target's text with [name ^ ": "],
    so the missed lines of an experiment with several groups of targets
    say which group they belong to. *)

val within : tolerance:float -> paper:float -> float -> bool
(** [within ~tolerance ~paper x]: [x] lies within [tolerance] (a
    fraction) of [paper]. *)
