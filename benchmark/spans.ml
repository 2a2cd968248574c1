(* Spans the benchmark records around its own calls into the libraries.

   A span has an id, its parent's id, host start/end (monotonic ns),
   simulated start/end (the workload's clock, [Kernel.max_time]) and the
   minor-heap words allocated while it was open. Every span feeds its
   name's aggregate (count, busy and self host time, allocation, and
   duration histograms); raw spans are kept in memory for one root tree
   in [sample_every] and written out at exit. Until [start] is called,
   [with_] is a plain call. *)

type agg = {
  mutable count : int;
  mutable busy_ns : int;
  mutable self_ns : int;
  mutable alloc_words : float;
  host_ns : Stats.Hist.t;
  sim_cycles : Stats.Hist.t;
}

type raw = {
  id : int;
  parent : int;
  name : string;
  host0 : int;
  host1 : int;
  sim0 : int;
  sim1 : int;
  words : float;
}

type frame = {
  f_id : int;
  f_parent : int;
  f_name : string;
  f_host0 : int;
  f_sim0 : int;
  f_words0 : float;
  mutable child_ns : int;
}

type state = {
  mutable sim_clock : unit -> int;
  sample_every : int;
  aggs : (string, agg) Hashtbl.t;
  mutable stack : frame list;
  mutable next_id : int;
  mutable roots : int;
  mutable keep : bool; (* record the current root tree's raw spans *)
  mutable raw : raw list; (* newest first *)
}

let st : state option ref = ref None

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let start ~sample_every =
  st :=
    Some
      { sim_clock = (fun () -> 0); sample_every = max 1 sample_every;
        aggs = Hashtbl.create 16; stack = []; next_id = 1;
        roots = 0; keep = false; raw = [] }

(* Each round of a workload boots a fresh machine with its own clock. *)
let set_sim_clock f = Option.iter (fun s -> s.sim_clock <- f) !st

let agg s name =
  match Hashtbl.find_opt s.aggs name with
  | Some a -> a
  | None ->
    let a =
      { count = 0; busy_ns = 0; self_ns = 0; alloc_words = 0.;
        host_ns = Stats.Hist.create (); sim_cycles = Stats.Hist.create () }
    in
    Hashtbl.add s.aggs name a;
    a

let finish s f =
  let host1 = now_ns () and sim1 = s.sim_clock () in
  let words = Gc.minor_words () -. f.f_words0 in
  let dur = host1 - f.f_host0 in
  s.stack <- List.tl s.stack;
  (match s.stack with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ());
  let a = agg s f.f_name in
  a.count <- a.count + 1;
  a.busy_ns <- a.busy_ns + dur;
  a.self_ns <- a.self_ns + (dur - f.child_ns);
  a.alloc_words <- a.alloc_words +. words;
  Stats.Hist.add a.host_ns dur;
  Stats.Hist.add a.sim_cycles (sim1 - f.f_sim0);
  if s.keep then
    s.raw <-
      { id = f.f_id; parent = f.f_parent; name = f.f_name; host0 = f.f_host0;
        host1; sim0 = f.f_sim0; sim1; words }
      :: s.raw

(* Run [f] inside a span named [name]. *)
let with_ name f =
  match !st with
  | None -> f ()
  | Some s ->
    let parent = match s.stack with p :: _ -> p.f_id | [] -> 0 in
    if parent = 0 then begin
      s.keep <- s.roots mod s.sample_every = 0;
      s.roots <- s.roots + 1
    end;
    let fr =
      { f_id = s.next_id; f_parent = parent; f_name = name;
        f_host0 = now_ns (); f_sim0 = s.sim_clock ();
        f_words0 = Gc.minor_words (); child_ns = 0 }
    in
    s.next_id <- s.next_id + 1;
    s.stack <- fr :: s.stack;
    match f () with
    | v ->
      finish s fr;
      v
    | exception e ->
      finish s fr;
      raise e

let find name = Option.bind !st (fun s -> Hashtbl.find_opt s.aggs name)

let write_raw file =
  match !st with
  | None -> ()
  | Some s ->
    let oc = open_out file in
    Printf.fprintf oc "{\"sample_every\": %d, \"spans\": [" s.sample_every;
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "%s\n{\"id\": %d, \"parent\": %d, \"name\": %S, \"host_start_ns\": \
           %d, \"host_end_ns\": %d, \"sim_start\": %d, \"sim_end\": %d, \
           \"alloc_words\": %.0f}"
          (if i = 0 then "" else ",")
          r.id r.parent r.name r.host0 r.host1 r.sim0 r.sim1 r.words)
      (List.rev s.raw);
    output_string oc "\n]}\n";
    close_out oc
