(* lvmbench: the LVM stack's one benchmark.

     lvmbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE]
              [--scale N]

   Runs one workload (or, without [--workload], every workload in turn,
   each in a fresh process), checks its outputs, and prints a table of
   every metric, a detail JSON object with the raw integer counts behind
   each ratio, and, as the last line, the result object
   [{"correct", "attempted", "failed", "metrics"}]. With [--trace 0] the
   metrics are the end-to-end ones, measured untraced; with [--trace 1]
   (or a file name, which also receives the raw spans) they are the
   per-layer ones, with span metrics from a separate traced run. See
   README.md for the metric catalogue. *)

open Lvm_vm
module W = Workloads

type clock = Sim | Host

type metric = { name : string; unit_ : string; clock : clock; value : float }

(* {1 Command line} *)

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : [ `Off | `On | `File of string ];
  scale : int;
}

let usage =
  "usage: lvmbench [--workload NAME] [--seed N] [--seconds S] \
   [--trace 0|1|FILE] [--scale N]"

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let parse_args () =
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = Some v } rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s -> go { o with seed = s } rest
      | None -> die "lvmbench: bad --seed %S" v)
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s >= 0. -> go { o with seconds = s } rest
      | _ -> die "lvmbench: bad --seconds %S" v)
    | "--trace" :: v :: rest ->
      let trace = match v with "0" -> `Off | "1" -> `On | f -> `File f in
      go { o with trace } rest
    | "--scale" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s when s >= 1 -> go { o with scale = s } rest
      | _ -> die "lvmbench: bad --scale %S" v)
    | a :: _ -> die "lvmbench: unexpected argument %S\n%s" a usage
  in
  go { workload = None; seed = 1; seconds = 20.; trace = `Off; scale = 1 }
    (List.tl (Array.to_list Sys.argv))

(* {1 Environment} *)

let read_line_of f =
  try
    let ic = open_in f in
    let s = input_line ic in
    close_in ic;
    Some (String.trim s)
  with Sys_error _ | End_of_file -> None

(* The checked-out commit, read from [.git] in the working directory
   (never from a parent directory); "unknown" outside a git checkout. *)
let git_rev () =
  match read_line_of ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h ->
    let r = String.sub h 5 (String.length h - 5) in
    Option.value (read_line_of (Filename.concat ".git" r)) ~default:"unknown"
  | Some h -> h
  | None -> "unknown"

(* {1 JSON} *)

(* Every digit the float has: the shortest form that reads back exactly. *)
let json_float v =
  if not (Float.is_finite v) then "0"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let json_str s = Printf.sprintf "%S" s

let json_obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields)
  ^ "}"

let json_ints l = json_obj (List.map (fun (k, v) -> (k, string_of_int v)) l)
let json_floats l = "[" ^ String.concat ", " (List.map json_float l) ^ "]"

let json_metrics ms =
  json_obj
    (List.map
       (fun m ->
         ( m.name,
           json_obj [ ("value", json_float m.value); ("unit", json_str m.unit_) ] ))
       ms)

(* {1 Measurement}

   A run is a series of rounds. Each round sets up a fresh system (build
   plus one warm-up unit, timed: the set-up time), runs the workload's
   units, and runs the round's correctness gate. The workload's first
   [rounds] rounds (the prefix) always run and are the deterministic span
   every simulated-cycle and per-layer metric is computed over; further
   rounds start until [--seconds] of wall time have passed since the
   first began, and only add host-time samples and set-ups.

   Host time per op is summarized per round (p50, p90), and the run
   reports its fastest round: on a shared machine other tenants slow
   whole stretches of a run by up to 2x, and the fastest round is the
   summary that moves least between runs. *)

let round_seed ~seed r = (seed * 1000) + r
let units_per_round (w : W.t) o = max 2 (w.units / o.scale)

let add_assoc a b =
  List.map (fun (k, v) -> (k, v + Option.value (List.assoc_opt k a) ~default:0)) b

type hist = { bounds : int array; counts : int array; sum : int }

let hists k =
  List.map
    (fun h ->
      ( Lvm_obs.Histogram.name h,
        { bounds = Lvm_obs.Histogram.bounds h;
          counts = Array.copy (Lvm_obs.Histogram.counts h);
          sum = Lvm_obs.Histogram.sum h } ))
    (Lvm_obs.Ctx.histograms (Kernel.obs k))

(* Pointwise [f] over the histograms of [a] and their namesakes in [b];
   one missing from [b] is taken as [a]'s alone. *)
let hist_map2 f a b =
  List.map
    (fun (n, x) ->
      match List.assoc_opt n b with
      | Some y when Array.length y.counts = Array.length x.counts ->
        (n, { x with counts = Array.map2 f x.counts y.counts; sum = f x.sum y.sum })
      | Some _ | None -> (n, x))
    a

(* What the prefix rounds' measured units did. *)
type prefix = {
  p_ops : int;
  p_wall : int; (* simulated cycles *)
  p_sim : Stats.Buf.t; (* simulated cycles per op, one per unit *)
  counters : Lvm_obs.Snapshot.t;
  gauges : Lvm_obs.Snapshot.t; (* absolute, at the last prefix round's end *)
  p_hists : (string * hist) list;
  counts : (string * int) list;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let empty_prefix () =
  { p_ops = 0; p_wall = 0; p_sim = Stats.Buf.create ();
    counters = Lvm_obs.Snapshot.of_alist []; gauges = Lvm_obs.Snapshot.of_alist [];
    p_hists = []; counts = []; minor_words = 0.; promoted_words = 0.;
    major_collections = 0 }

type run = {
  prefix : prefix;
  round_host : (float * float) list; (* per round: host us/op p50, p90 *)
  host_samples : int;
  setup_s : float list;
  gate : ((string * float) list, string) result; (* every round's facts *)
  attempted : int;
  failed : int;
  rounds : int;
  ops_run : int;
  elapsed_s : float;
}

let measure (w : W.t) o ~traced ~seconds =
  let units = units_per_round w o in
  let round_host = ref [] and host_samples = ref 0 in
  let p = ref (empty_prefix ()) in
  let setup_s = ref [] and gate = ref (Ok []) in
  let attempted = ref 0 and failed = ref 0 in
  let ops_run = ref 0 in
  let t_start = Spans.now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let r = ref 0 in
  while !r < w.rounds || Spans.now_ns () < deadline do
    let in_prefix = !r < w.rounds in
    (* drop the previous round's system before building the next *)
    Gc.compact ();
    let t0 = Spans.now_ns () in
    let inst = w.setup ~seed:(round_seed ~seed:o.seed !r) ~scale:o.scale ~traced in
    setup_s := (float_of_int (Spans.now_ns () - t0) /. 1e9) :: !setup_s;
    let k = inst.kernel in
    Spans.set_sim_clock (fun () -> Kernel.max_time k);
    let snap0 = Kernel.snapshot k and h0 = hists k and g0 = Gc.quick_stat () in
    let ops = ref 0 and wall = ref 0 and n = ref 0 in
    let host = Stats.Buf.create () in
    while !n < units do
      let t0 = Spans.now_ns () in
      let s = inst.step () in
      let dt = Spans.now_ns () - t0 in
      if s.W.ops > 0 then begin
        let us = float_of_int dt /. 1000. /. float_of_int s.ops in
        Stats.Buf.add host us;
        if in_prefix then
          Stats.Buf.add !p.p_sim (float_of_int s.sim_cycles /. float_of_int s.ops)
      end;
      ops := !ops + s.ops;
      wall := !wall + s.sim_cycles;
      incr n
    done;
    if in_prefix then begin
      let g1 = Gc.quick_stat () and snap1 = Kernel.snapshot k in
      let q = !p in
      p :=
        { q with
          p_ops = q.p_ops + !ops;
          p_wall = q.p_wall + !wall;
          counters =
            Lvm_obs.Snapshot.merge q.counters
              (Lvm_obs.Snapshot.delta ~before:snap0 ~after:snap1);
          gauges = snap1;
          p_hists = hist_map2 ( + ) (hist_map2 ( - ) (hists k) h0) q.p_hists;
          counts = add_assoc q.counts (inst.counts ());
          minor_words = q.minor_words +. (g1.minor_words -. g0.minor_words);
          promoted_words =
            q.promoted_words +. (g1.promoted_words -. g0.promoted_words);
          major_collections =
            q.major_collections + (g1.major_collections - g0.major_collections) }
    end;
    if Stats.Buf.length host > 0 then begin
      let a = Stats.Buf.to_array host in
      round_host := (Stats.percentile a 50., Stats.percentile a 90.) :: !round_host;
      host_samples := !host_samples + Float.Array.length a
    end;
    ops_run := !ops_run + !ops;
    attempted := !attempted + inst.attempted ();
    failed := !failed + inst.failed ();
    (gate :=
       match (!gate, inst.check ()) with
       | Ok a, Ok b -> Ok (a @ b)
       | (Error _ as e), _ | Ok _, (Error _ as e) -> e);
    incr r
  done;
  { prefix = !p; round_host = List.rev !round_host; host_samples = !host_samples;
    setup_s = List.rev !setup_s; gate = !gate;
    attempted = !attempted; failed = !failed; rounds = !r;
    ops_run = !ops_run;
    elapsed_s = float_of_int (Spans.now_ns () - t_start) /. 1e9 }

(* {1 Metrics} *)

(* The values every round's gate reported under [name]. *)
let gate_facts r name =
  match r.gate with
  | Ok g -> List.filter_map (fun (k, v) -> if k = name then Some v else None) g
  | Error _ -> []

let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let get (p : prefix) name = Lvm_obs.Snapshot.get p.counters name
let count (p : prefix) name = Option.value (List.assoc_opt name p.counts) ~default:0

let hist (p : prefix) name =
  Option.value (List.assoc_opt name p.p_hists)
    ~default:{ bounds = [||]; counts = [||]; sum = 0 }

(* The bucket bound holding the [pct] percentile of a histogram. *)
let hist_percentile p name pct =
  let h = hist p name in
  let total = Array.fold_left ( + ) 0 h.counts in
  if total = 0 then 0.
  else
    let rank = max 1 (int_of_float (Float.ceil (pct /. 100. *. float_of_int total))) in
    let last = Array.length h.bounds - 1 in
    let rec go i acc =
      let acc = acc + h.counts.(i) in
      if acc >= rank || i >= last then float_of_int h.bounds.(min i last)
      else go (i + 1) acc
    in
    go 0 0

let pctl buf p = Stats.percentile (Stats.Buf.to_array buf) p

(* The fastest round's value of a per-round host percentile. *)
let host_us r pick = List.fold_left (fun m x -> Float.min m (pick x)) infinity r.round_host

let sim_tail_pct (p : prefix) =
  Stats.tail_percentile ~n:(Stats.Buf.length p.p_sim) ~beyond:10

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let end_to_end r =
  let p = r.prefix in
  [ { name = "sim_ops_per_kcycle"; unit_ = "ops/kcycle"; clock = Sim;
      value = 1000. *. per p.p_ops p.p_wall };
    { name = "sim_cycles_per_op_p50"; unit_ = "cycles"; clock = Sim;
      value = pctl p.p_sim 50. };
    { name = "sim_cycles_per_op_tail"; unit_ = "cycles"; clock = Sim;
      value = pctl p.p_sim (sim_tail_pct p) };
    { name = "host_us_per_op_p50"; unit_ = "us"; clock = Host;
      value = host_us r fst };
    { name = "host_us_per_op_p90"; unit_ = "us"; clock = Host;
      value = host_us r snd };
    { name = "setup_s"; unit_ = "s"; clock = Host; value = Stats.median r.setup_s };
    { name = "host_peak_heap_mb"; unit_ = "MiB"; clock = Host;
      value = peak_heap_mb () } ]

let span_names =
  [ "tpca.txn"; "rvm.begin_txn"; "rvm.read_word"; "rvm.write_word";
    "rvm.commit"; "rvm.recover"; "store.batch"; "store.flush"; "store.read";
    "store.recover"; "mvcc.acquire"; "mvcc.read"; "sim.slice" ]

(* Per span name: calls, median simulated and host duration, total busy
   and self host time, and minor-heap words allocated per call. *)
let span_metrics () =
  List.concat_map
    (fun n ->
      let m suffix unit_ clock value =
        { name = n ^ "." ^ suffix; unit_; clock; value }
      in
      let a = Spans.find n in
      let f g = Option.fold ~none:0. ~some:g a in
      [ m "count" "count" Host (f (fun a -> float_of_int a.Spans.count));
        m "sim_cycles_p50" "cycles" Sim
          (f (fun a -> float_of_int (Stats.Hist.percentile a.Spans.sim_cycles 50.)));
        m "host_ns_p50" "ns" Host
          (f (fun a -> float_of_int (Stats.Hist.percentile a.Spans.host_ns 50.)));
        m "busy_ms" "ms" Host (f (fun a -> float_of_int a.Spans.busy_ns /. 1e6));
        m "self_ms" "ms" Host (f (fun a -> float_of_int a.Spans.self_ns /. 1e6));
        m "alloc_words_per_call" "words" Host
          (f (fun a -> a.Spans.alloc_words /. float_of_int (max 1 a.count))) ])
    span_names

(* Per-layer metrics, from the prefix rounds' counters, the gates'
   timings and the traced run's spans. A metric the workload does not
   exercise reads 0. *)
let per_layer (w : W.t) r ~overhead =
  let p = r.prefix in
  let ops = p.p_ops in
  let is_tpca = w.name = "tpca-rlvm" in
  let txns = if is_tpca then count p "txns" else count p "executed" in
  let m name unit_ clock value = { name; unit_; clock; value } in
  let gate_ms n = match gate_facts r n with [] -> 0. | l -> Stats.median l in
  let gate_sum n = List.fold_left ( +. ) 0. (gate_facts r n) in
  let shard_busy f =
    match
      List.filter_map
        (fun i -> List.assoc_opt (Printf.sprintf "shard%d_cycles" i) p.counts)
        [ 0; 1; 2; 3 ]
    with
    | [] -> 0.
    | c :: cs -> per (List.fold_left f c cs) (count p "wall_cycles")
  in
  let batch = hist p "rlvm.commit_batch" in
  [ m "machine.bus_busy_cycles_per_op" "cycles" Sim (per (get p "bus_busy_cycles") ops);
    m "machine.bus_wait_cycles_per_op" "cycles" Sim (per (hist p "bus.wait_cycles").sum ops);
    m "machine.l1_hit_ratio" "ratio" Sim
      (per (get p "l1_hits") (get p "l1_hits" + get p "l1_misses"));
    m "machine.log_records_per_op" "count" Sim (per (get p "log_records") ops);
    m "machine.overloads" "count" Sim (float_of_int (get p "overloads"));
    m "machine.overload_cycles_per_op" "cycles" Sim (per (get p "overload_cycles") ops);
    m "machine.dc_pages_scanned_per_op" "count" Sim (per (get p "dc_pages_scanned") ops);
    m "log.extent_switches_per_kop" "count" Sim
      (1000. *. per (get p "log.extent_switches") ops);
    m "log.extents_recycled" "count" Sim (float_of_int (get p "log.extents_recycled"));
    m "log.commit_batch_mean" "count" Sim
      (per batch.sum (Array.fold_left ( + ) 0 batch.counts));
    m "rvm.wal_forces_per_txn" "count" Sim (per (get p "rvm.wal_forces") txns);
    m "rvm.wal_bytes_per_txn" "B" Sim (per (count p "wal_bytes") txns);
    m "rvm.tps_25mhz" "1/s" Sim
      (if is_tpca then
         float_of_int Lvm_machine.Cycles.cpu_mhz *. 1e6 *. per ops p.p_wall
       else 0.);
    m "rvm.recover_ms" "ms" Host (gate_ms "rvm.recover_ms");
    m "store.cross_share" "ratio" Sim (per (count p "cross") (count p "executed"));
    m "store.useful_ratio" "ratio" Sim
      (per (count p "executed")
         (count p "executed" + count p "requeued" + count p "lost"));
    m "store.shard_busy_min" "ratio" Sim (shard_busy min);
    m "store.shard_busy_max" "ratio" Sim (shard_busy max);
    m "store.commit_cycles_p50" "cycles" Sim (hist_percentile p "store.commit_cycles" 50.);
    m "store.commit_cycles_p99" "cycles" Sim (hist_percentile p "store.commit_cycles" 99.);
    m "store.redo_per_txn" "count" Sim (per (get p "store.redo") (count p "executed"));
    m "store.recover_ms" "ms" Host (gate_ms "store.recover_ms");
    m "store.stale_redo_txns" "count" Sim (gate_sum "store.stale_redo_txns");
    m "store.stale_redo_keys" "count" Sim (gate_sum "store.stale_redo_keys");
    m "mvcc.applied_per_write" "count" Sim (per (get p "mvcc.applied") (count p "executed"));
    m "mvcc.snapshots_per_kread" "count" Sim
      (1000. *. per (get p "mvcc.snapshots") (count p "reads"));
    m "mvcc.pruned" "count" Sim (float_of_int (get p "mvcc.pruned"));
    m "mvcc.snapshot_age" "ts" Sim
      (float_of_int (Lvm_obs.Snapshot.get p.gauges "mvcc.snapshot_age"));
    m "sim.commit_ratio" "ratio" Sim
      (per (count p "events_committed") (count p "events_processed"));
    m "sim.rollbacks_per_kevent" "count" Sim
      (1000. *. per (count p "rollbacks") (count p "events_committed"));
    m "sim.anti_messages_per_kevent" "count" Sim
      (1000. *. per (count p "anti_messages") (count p "events_committed"));
    m "gc.minor_words_per_op" "words" Host (p.minor_words /. float_of_int (max 1 ops));
    m "gc.promoted_words_per_op" "words" Host
      (p.promoted_words /. float_of_int (max 1 ops));
    m "gc.major_collections" "count" Host (float_of_int p.major_collections);
    m "trace.overhead" "ratio" Host overhead ]
  @ span_metrics ()

(* {1 Reporting} *)

let clock_name = function Sim -> "sim" | Host -> "host"

let print_table (w : W.t) ms =
  Printf.printf "== %s: %s ==\n" w.name w.why;
  List.iter
    (fun m ->
      Printf.printf "  %-36s %22s %-10s %s\n" m.name (json_float m.value)
        m.unit_ (clock_name m.clock))
    ms

let detail (w : W.t) o r metrics =
  let p = r.prefix in
  json_obj
    [ ("schema", json_str "lvmbench/1"); ("workload", json_str w.name);
      ("seed", string_of_int o.seed); ("seconds", json_float o.seconds);
      ("scale", string_of_int o.scale);
      ("traced", string_of_bool (o.trace <> `Off));
      ("git_rev", json_str (git_rev ()));
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_str Sys.ocaml_version); ("unit", json_str w.unit_name);
      ("sim_tail_percentile", json_float (sim_tail_pct p));
      ( "raw",
        json_ints
          ([ ("prefix_rounds", w.rounds);
             ("units_per_round", units_per_round w o);
             ("prefix_ops", p.p_ops); ("prefix_wall_cycles", p.p_wall);
             ("prefix_samples", Stats.Buf.length p.p_sim);
             ("rounds_run", r.rounds);
             ("ops_run", r.ops_run); ("host_samples", r.host_samples);
             ("setups", List.length r.setup_s) ]
           @ p.counts) );
      ("counters", json_ints (Lvm_obs.Snapshot.to_alist p.counters));
      ("measured_s", json_float r.elapsed_s);
      ( "rounds",
        json_obj
          [ ("setup_s", json_floats r.setup_s);
            ("host_us_p50", json_floats (List.map fst r.round_host));
            ("host_us_p90", json_floats (List.map snd r.round_host)) ] );
      ("gate", match r.gate with Ok _ -> json_str "passed" | Error e -> json_str e);
      ("metrics", json_metrics metrics) ]

let run_one (w : W.t) o =
  let traced = o.trace <> `Off in
  (* With tracing, only the prefix rounds run untraced (the per-layer
     counters and the overhead baseline), then again traced. *)
  let r = measure w o ~traced:false ~seconds:(if traced then 0. else o.seconds) in
  let r, metrics =
    if not traced then (r, end_to_end r)
    else begin
      Spans.start ~sample_every:w.sample_every;
      let tr = measure w o ~traced:true ~seconds:0. in
      (match o.trace with `File f -> Spans.write_raw f | `On | `Off -> ());
      let overhead = (host_us tr fst /. host_us r fst) -. 1. in
      let r =
        match tr.gate with
        | Error _ as e -> { r with gate = e }
        | Ok _ -> { r with failed = r.failed + tr.failed }
      in
      (r, per_layer w r ~overhead)
    end
  in
  let correct = Result.is_ok r.gate && r.failed = 0 in
  print_table w metrics;
  Printf.printf "  correctness gate: %s\n"
    (match r.gate with Ok _ -> "passed" | Error e -> "FAILED: " ^ e);
  (match List.fold_left ( +. ) 0. (gate_facts r "store.stale_redo_keys") with
  | 0. -> ()
  | keys ->
    Printf.printf
      "  known store defect: recovery rolled retired 2PC intents forward \
       and changed %.0f keys (see README.md)\n" keys);
  print_endline (detail w o r metrics);
  print_endline
    (json_obj
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int (max 1 r.attempted));
         ("failed", string_of_int r.failed);
         ("metrics", json_metrics metrics) ]);
  if not correct then exit 1

(* Every workload in turn, each in a fresh process. *)
let run_all o =
  let failures =
    List.filter
      (fun (w : W.t) ->
        let trace =
          match o.trace with
          | `Off -> "0"
          | `On -> "1"
          | `File f ->
            Filename.remove_extension f ^ "-" ^ w.name ^ Filename.extension f
        in
        let args =
          [| Sys.executable_name; "--workload"; w.name;
             "--seed"; string_of_int o.seed; "--seconds"; json_float o.seconds;
             "--trace"; trace; "--scale"; string_of_int o.scale |]
        in
        flush stdout;
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
            Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> false
        | _ -> true)
      W.all
  in
  Printf.printf "lvmbench: %d/%d workloads passed their correctness gates\n"
    (List.length W.all - List.length failures) (List.length W.all);
  if failures <> [] then exit 1

let () =
  let o = parse_args () in
  match o.workload with
  | None -> run_all o
  | Some name -> (
    match List.find_opt (fun (w : W.t) -> w.name = name) W.all with
    | Some w -> run_one w o
    | None ->
      die "lvmbench: unknown workload %S (one of: %s)" name
        (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all)))
