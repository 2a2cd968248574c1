(** Shared collector/sink plumbing for the command-line tools.

    Every [lvmctl] command runs its workload under an ambient
    {!Lvm_obs.Collector} and then renders the merged counters and
    histograms through a {!Lvm_obs.Sink}. This module holds the one
    copy of that wiring; JSON output is wrapped in the versioned
    {!Output_stream.Envelope} (kind ["metrics"]). *)

val blob : ?label:string -> Lvm_obs.Collector.t -> string
(** The collector's merged counters and histograms as one enveloped JSON
    line ([{"schema_version": 1, "kind": "metrics", "metrics": ...}]). *)

val emit :
  ?label:string ->
  format:Lvm_obs.Sink.format option ->
  Format.formatter ->
  Lvm_obs.Collector.t ->
  unit
(** Render the collector in the requested format ([Json] goes through
    {!blob}); [format = None] emits nothing (metrics not requested). *)

val with_ambient :
  ?label:string ->
  format:Lvm_obs.Sink.format option ->
  Format.formatter ->
  (unit -> 'a) ->
  'a
(** Run a workload under an ambient {!Lvm_obs.Collector} and {!emit} its
    metrics afterwards. Every machine the workload creates is captured. *)
