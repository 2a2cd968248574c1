type t = {
  trace : Trace.t;
  counters : Counter.t;
  mutable histograms : Histogram.t list; (* newest first *)
  mutable providers : (unit -> (string * int) list) list; (* newest first *)
}

(* Set by Collector.attach so new contexts enroll themselves. *)
let on_create : (t -> unit) option ref = ref None

let create () =
  let t =
    {
      trace = Trace.create ();
      counters = Counter.create ();
      histograms = [];
      providers = [];
    }
  in
  (match !on_create with None -> () | Some f -> f t);
  t

let trace t = t.trace
let event t ~at ev = Trace.record t.trace ~at ev
let counter t name = Counter.counter t.counters name

let histogram t ~name ~bounds =
  match List.find_opt (fun h -> Histogram.name h = name) t.histograms with
  | Some h -> h
  | None ->
    let h = Histogram.create ~name ~bounds in
    t.histograms <- h :: t.histograms;
    h

let histograms t = List.rev t.histograms

let add_provider t f = t.providers <- f :: t.providers

let snapshot t =
  Snapshot.of_alist
    (List.concat_map (fun f -> f ()) (List.rev t.providers)
    @ Counter.to_alist t.counters)
