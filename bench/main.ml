(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4) on the simulated machine, then runs Bechamel
   micro-benchmarks of the simulator primitives behind each experiment
   (host wall-clock, one Test.make per table/figure).

   Usage: main.exe [--quick] [--no-bechamel] [--only ID] [--list]
                   [--metrics FILE] [--cpus N]
                   [--store] [--store-json FILE]
                   [--fams] [--fams-json FILE]
                   [--repl] [--repl-json FILE]
                   [--hotshard] [--hotshard-json FILE]
                   [--logdiet] [--logdiet-json FILE]
                   [--mvcc] [--mvcc-json FILE] *)

open Lvm_machine
open Lvm_vm

(* {1 Bechamel micro-benchmarks}

   Fixtures are prebuilt and each staged closure is safe to run millions
   of times (offsets wrap, logs are recycled). *)

let bench_table2 () =
  let k = Kernel.create ~frames:256 () in
  let sp = Kernel.create_space k in
  let seg = Kernel.create_segment k ~size:8192 in
  let region = Kernel.create_region k seg in
  let ls = Kernel.create_log_segment k ~size:(16 * Addr.page_size) in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  let i = ref 0 in
  Bechamel.Test.make ~name:"table2/logged-write"
    (Bechamel.Staged.stage (fun () ->
         incr i;
         Kernel.write_word k sp (base + (!i * 4 mod 4096)) !i;
         if !i mod 200 = 0 then begin
           Lvm_log.truncate_suffix (Lvm_log.of_segment k ls) ~new_end:0
         end))

let bench_table3 () =
  let k = Kernel.create ~frames:512 () in
  let sp = Kernel.create_space k in
  let rvm = Lvm_rvm.Rvm.make Lvm_rvm.Rvm.Config.default k sp ~size:8192 in
  let rlvm = Lvm_rvm.Rlvm.make Lvm_rvm.Rlvm.Config.default k sp ~size:8192 in
  let i = ref 0 in
  let rvm_test =
    Bechamel.Test.make ~name:"table3/rvm-txn"
      (Bechamel.Staged.stage (fun () ->
           incr i;
           let off = !i * 8 mod 4096 in
           Lvm_rvm.Rvm.begin_txn rvm;
           Lvm_rvm.Rvm.set_range rvm ~off ~len:4;
           Lvm_rvm.Rvm.write_word rvm ~off !i;
           Lvm_rvm.Rvm.commit rvm))
  in
  let j = ref 0 in
  let rlvm_test =
    Bechamel.Test.make ~name:"table3/rlvm-txn"
      (Bechamel.Staged.stage (fun () ->
           incr j;
           let off = !j * 8 mod 4096 in
           Lvm_rvm.Rlvm.begin_txn rlvm;
           Lvm_rvm.Rlvm.write_word rlvm ~off !j;
           Lvm_rvm.Rlvm.commit rlvm))
  in
  [ rvm_test; rlvm_test ]

(* Same transaction stream as table3/rlvm-txn, but the WAL is forced once
   per four commits: measures what group commit shaves off the loop. *)
let bench_group4 () =
  let k = Kernel.create ~frames:512 () in
  let sp = Kernel.create_space k in
  let rlvm = Lvm_rvm.Rlvm.make { Lvm_rvm.Rlvm.Config.default with group = 4 } k sp ~size:8192 in
  let i = ref 0 in
  Bechamel.Test.make ~name:"table3/rlvm-txn-group4"
    (Bechamel.Staged.stage (fun () ->
         incr i;
         let off = !i * 8 mod 4096 in
         Lvm_rvm.Rlvm.begin_txn rlvm;
         Lvm_rvm.Rlvm.write_word rlvm ~off !i;
         Lvm_rvm.Rlvm.commit rlvm))

(* Plain writes + snapshot through the failure-atomic snapshot API: the
   per-batch cost the fams_comparison measures in simulated cycles, here
   as host ns/op. Snapshots recycle the log and truncate the WAL, so the
   closure is safe to run indefinitely. *)
let bench_fams () =
  let k = Kernel.create ~frames:512 () in
  let sp = Kernel.create_space k in
  let f =
    match Lvm_fams.map Lvm_fams.Config.default k sp ~size:8192 with
    | Ok f -> f
    | Error e -> failwith (Lvm.Lvm_error.to_string e)
  in
  let i = ref 0 in
  Bechamel.Test.make ~name:"fams/8-writes+snapshot"
    (Bechamel.Staged.stage (fun () ->
         incr i;
         for w = 0 to 7 do
           match Lvm_fams.write_word f ~off:(((!i * 8) + w) * 8 mod 4096) !i
           with
           | Ok () -> ()
           | Error e -> failwith (Lvm.Lvm_error.to_string e)
         done;
         match Lvm_fams.snapshot f with
         | Ok _ -> ()
         | Error e -> failwith (Lvm.Lvm_error.to_string e)))

(* [Log_reader.fold] over a prebuilt log: the fold syncs the logger once
   per call and caches one frame translation per page, so this scales
   with record count, not with per-record kernel crossings. *)
let bench_logreader_fold () =
  let k = Kernel.create ~frames:256 () in
  let sp = Kernel.create_space k in
  let seg = Kernel.create_segment k ~size:4096 in
  let region = Kernel.create_region k seg in
  let ls = Kernel.create_log_segment k ~size:(8 * Addr.page_size) in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  for i = 0 to 1023 do
    Kernel.write_word k sp (base + (i * 4 mod 4096)) i
  done;
  Kernel.sync_log k ls;
  Bechamel.Test.make ~name:"logreader/fold-1024-records"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Lvm.Log_reader.fold k ls ~init:0 ~f:(fun acc ~off:_ _ -> acc + 1))))

let bench_fig7 () =
  Bechamel.Test.make ~name:"fig7-8/synthetic-200-events"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Lvm_sim.Synthetic.run
              { Lvm_sim.Synthetic.default_params with
                Lvm_sim.Synthetic.events = 200 }
              Lvm_sim.State_saving.Lvm_based)))

let bench_fig9 () =
  let k = Kernel.create ~frames:512 () in
  let sp = Kernel.create_space k in
  let working = Kernel.create_segment k ~size:(32 * 1024) in
  let ckpt = Kernel.create_segment k ~size:(32 * 1024) in
  Kernel.declare_source k ~dst:working ~src:ckpt ~offset:0;
  let region = Kernel.create_region k working in
  let base = Kernel.bind k sp region in
  Bechamel.Test.make ~name:"fig9/reset-deferred-copy-32k"
    (Bechamel.Staged.stage (fun () ->
         Kernel.write_word k sp base 1;
         Kernel.reset_deferred_copy k sp ~start:base ~len:(32 * 1024)))

let bench_fig10 () =
  Bechamel.Test.make ~name:"fig10-12/writes-loop-500-iters"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Lvm_experiments.Writes_loop.run ~iterations:500 ~c:60 ~unlogged:0
              ~logged:1 ())))

let bench_multicpu ~cpus () =
  Bechamel.Test.make
    ~name:(Printf.sprintf "multicpu/writes-loop-%dcpu-200-iters" cpus)
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Lvm_experiments.Writes_loop.run ~cpus ~iterations:200 ~c:60
              ~unlogged:0 ~logged:1 ())))

let bench_consistency () =
  let k = Kernel.create ~frames:512 () in
  let sp = Kernel.create_space k in
  let t =
    Lvm_consistency.Shared_segment.create k sp ~size:8192
      Lvm_consistency.Shared_segment.Log_based
  in
  let i = ref 0 in
  Bechamel.Test.make ~name:"consistency/log-based-release"
    (Bechamel.Staged.stage (fun () ->
         incr i;
         Lvm_consistency.Shared_segment.acquire t;
         Lvm_consistency.Shared_segment.write_word t ~off:(!i * 4 mod 8192)
           !i;
         ignore (Lvm_consistency.Shared_segment.release t)))

let bechamel_tests ~cpus () =
  Bechamel.Test.make_grouped ~name:"lvm"
    ([ bench_table2 () ] @ bench_table3 ()
    @ [ bench_group4 (); bench_fams (); bench_logreader_fold ();
        bench_fig7 (); bench_fig9 (); bench_fig10 ();
        bench_multicpu ~cpus (); bench_consistency () ])

let run_bechamel ~cpus () =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] (bechamel_tests ~cpus ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Format.printf "@.%s@.= Bechamel micro-benchmarks (host ns/op) =@.%s@."
    (String.make 46 '=') (String.make 46 '=');
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> Printf.sprintf "%.0f ns/op" e
        | Some _ | None -> "n/a"
      in
      rows := [ name; estimate ] :: !rows)
    results;
  Lvm_experiments.Report.table Format.std_formatter
    ~header:[ "benchmark"; "estimate" ]
    (List.sort compare !rows)

(* {1 Group commit on vs off (simulated cycles)}

   The identical transaction stream with the WAL forced on every commit
   (group 1, the paper's RVM behavior) and once per four commits (group
   4): the per-commit force cost amortizes across the batch. Run inside
   the ambient collector, so both runs' counters — notably
   [rvm.wal_forces] — land in the metrics blob. *)

let group_commit_comparison ppf =
  let point ~group =
    let k = Kernel.create ~frames:256 () in
    let sp = Kernel.create_space k in
    let r = Lvm_rvm.Rlvm.make { Lvm_rvm.Rlvm.Config.default with group } k sp ~size:8192 in
    let txns = 64 in
    let t0 = Kernel.time k in
    for i = 1 to txns do
      Lvm_rvm.Rlvm.begin_txn r;
      Lvm_rvm.Rlvm.write_word r ~off:(i * 8 mod 4096) i;
      Lvm_rvm.Rlvm.commit r
    done;
    Lvm_rvm.Rlvm.flush_commits r;
    let cycles = Kernel.time k - t0 in
    let forces =
      Lvm_obs.Snapshot.get (Machine.snapshot (Kernel.machine k))
        "rvm.wal_forces"
    in
    (cycles / txns, forces)
  in
  let c1, f1 = point ~group:1 in
  let c4, f4 = point ~group:4 in
  Format.fprintf ppf
    "group commit (64 txns): group=1 %d cycles/txn, %d WAL forces; \
     group=4 %d cycles/txn, %d WAL forces@."
    c1 f1 c4 f4

(* {1 Sharded-store scaling (simulated cycles)}

   The same seeded transaction mix through [Lvm_store] at one shard and
   at four: the figure shards are supposed to buy is cycles-per-
   transaction wall-clock throughput, cross-shard two-phase commits and
   all. [--store-json FILE] records both points and the speedup (the
   BENCH_5.json blob). *)

let store_point ~shards ~txns =
  let st =
    Lvm_store.Store.create { Lvm_store.Store.Config.default with shards }
  in
  Lvm_store.Workload.run st { Lvm_store.Workload.default with txns }

let store_scaling_comparison ?json_file ppf =
  let txns = 200 in
  let r1 = store_point ~shards:1 ~txns in
  let r4 = store_point ~shards:4 ~txns in
  let speedup =
    r1.Lvm_store.Workload.cycles_per_txn
    /. r4.Lvm_store.Workload.cycles_per_txn
  in
  Format.fprintf ppf
    "store scaling (%d txns): 1 shard %.1f cycles/txn; 4 shards %.1f \
     cycles/txn (%d cross-shard, %d shed); speedup %.2fx@."
    txns r1.Lvm_store.Workload.cycles_per_txn
    r4.Lvm_store.Workload.cycles_per_txn r4.Lvm_store.Workload.cross
    r4.Lvm_store.Workload.shed speedup;
  match json_file with
  | None -> ()
  | Some file ->
    let open Lvm_tools.Output_stream.Envelope in
    let point shards (r : Lvm_store.Workload.result) =
      Obj
        [ ("shards", Int shards); ("executed", Int r.executed);
          ("cross", Int r.cross); ("shed", Int r.shed);
          ("requeued", Int r.requeued); ("wall_cycles", Int r.wall_cycles);
          ("cycles_per_txn", Float r.cycles_per_txn) ]
    in
    let line =
      render ~kind:"store_scaling"
        [ ("txns", Int txns); ("single", point 1 r1); ("sharded", point 4 r4);
          ("speedup", Float speedup) ]
    in
    let oc = open_out file in
    output_string oc line;
    output_char oc '\n';
    close_out oc;
    Printf.printf "store scaling written to %s\n%!" file

(* {1 FAMS vs RVM vs RLVM (simulated cycles)}

   The headline comparison for the failure-atomic snapshot API: the same
   durable-batch workload — [batches] batches of [writes] word stores to
   the same deterministic offsets over an 8 KiB region, each batch made
   durable — through the three programming models:

   - RVM: begin / per-write [set_range] annotation + write / commit;
   - RLVM: begin / plain writes / commit (hardware log builds the redo);
   - FAMS: plain writes / [snapshot] (no bracketing at all).

   [--fams-json FILE] records all three points and the ratios (the
   BENCH_6.json blob). *)

let fams_comparison ?json_file ppf =
  let batches = 64 and writes = 8 and size = 8192 in
  let off b w = ((b * writes) + w) * 8 mod (size / 2) in
  let measure point =
    let k = Kernel.create ~frames:256 () in
    let sp = Kernel.create_space k in
    let run = point k sp in
    let t0 = Kernel.time k in
    for b = 0 to batches - 1 do
      run b
    done;
    Kernel.time k - t0
  in
  let fams_unwrap what = function
    | Ok v -> v
    | Error e -> failwith (what ^ ": " ^ Lvm.Lvm_error.to_string e)
  in
  let rvm_cycles =
    measure (fun k sp ->
        let r = Lvm_rvm.Rvm.make Lvm_rvm.Rvm.Config.default k sp ~size in
        fun b ->
          Lvm_rvm.Rvm.begin_txn r;
          for w = 0 to writes - 1 do
            Lvm_rvm.Rvm.set_range r ~off:(off b w) ~len:4;
            Lvm_rvm.Rvm.write_word r ~off:(off b w) ((b * 97) + w)
          done;
          Lvm_rvm.Rvm.commit r)
  in
  let rlvm_cycles =
    measure (fun k sp ->
        let r = Lvm_rvm.Rlvm.make Lvm_rvm.Rlvm.Config.default k sp ~size in
        fun b ->
          Lvm_rvm.Rlvm.begin_txn r;
          for w = 0 to writes - 1 do
            Lvm_rvm.Rlvm.write_word r ~off:(off b w) ((b * 97) + w)
          done;
          Lvm_rvm.Rlvm.commit r)
  in
  let fams_spans = ref 0 and fams_bytes = ref 0 in
  let fams_cycles =
    measure (fun k sp ->
        let f =
          fams_unwrap "map" (Lvm_fams.map Lvm_fams.Config.default k sp ~size)
        in
        fun b ->
          for w = 0 to writes - 1 do
            fams_unwrap "write"
              (Lvm_fams.write_word f ~off:(off b w) ((b * 97) + w))
          done;
          let rep = fams_unwrap "snapshot" (Lvm_fams.snapshot f) in
          fams_spans := !fams_spans + rep.Lvm_fams.spans;
          fams_bytes := !fams_bytes + rep.Lvm_fams.bytes)
  in
  let per c = float_of_int c /. float_of_int batches in
  Format.fprintf ppf
    "fams (%d batches x %d writes): rvm %.0f cycles/batch; rlvm %.0f \
     cycles/batch; fams %.0f cycles/batch (%.2fx vs rvm, %.2fx vs rlvm)@."
    batches writes (per rvm_cycles) (per rlvm_cycles) (per fams_cycles)
    (per rvm_cycles /. per fams_cycles)
    (per rlvm_cycles /. per fams_cycles);
  match json_file with
  | None -> ()
  | Some file ->
    let open Lvm_tools.Output_stream.Envelope in
    let point cycles extra =
      Obj
        ([ ("wall_cycles", Int cycles);
           ("cycles_per_batch", Float (per cycles)) ]
        @ extra)
    in
    let line =
      render ~kind:"fams_comparison"
        [ ("batches", Int batches); ("writes", Int writes);
          ("size", Int size); ("rvm", point rvm_cycles []);
          ("rlvm", point rlvm_cycles []);
          ("fams",
           point fams_cycles
             [ ("spans", Int !fams_spans); ("bytes", Int !fams_bytes) ]);
          ("speedup_vs_rvm", Float (per rvm_cycles /. per fams_cycles));
          ("speedup_vs_rlvm", Float (per rlvm_cycles /. per fams_cycles)) ]
    in
    let oc = open_out file in
    output_string oc line;
    output_char oc '\n';
    close_out oc;
    Printf.printf "fams comparison written to %s\n%!" file

(* {1 Replication failover and catch-up (simulated ticks)}

   Two scenario measurements over an [Lvm_repl] cluster on a clean
   transport:

   - failover: replicate half the workload, fail-stop the primary with
     frames still in flight, promote the furthest-ahead standby and
     finish the workload on it — reporting the kill-to-serving latency
     and the ticks for the survivors to reconverge;
   - catch-up: fully partition one standby, commit the second half of
     the workload without it, heal, and report the bytes it was behind
     over the ticks it took to drain them.

   [--repl-json FILE] records both (the BENCH_7.json blob). *)

let repl_comparison ?json_file ppf =
  let module Repl = Lvm_repl in
  let txns = 64 and replicas = 2 in
  let commit ?(gap = 3) cl j =
    let keys = Repl.keys cl in
    (match
       Repl.exec cl
         ~writes:[ (j mod keys, (j * 100) + 1);
                   (((j * 5) + 2) mod keys, (j * 100) + 2) ]
     with
    | Ok () -> ()
    | Error e -> failwith (Lvm.Lvm_error.to_string e));
    Repl.step ~ticks:gap cl
  in
  (* failover: kill mid-stream, promote, finish on the new primary *)
  let cl = Repl.create { Repl.Config.default with replicas } in
  for j = 0 to (txns / 2) - 1 do
    commit cl j
  done;
  Repl.kill_primary cl;
  Repl.step ~ticks:4 cl;
  let promo = Repl.promote cl in
  let t0 = Repl.now cl in
  for j = txns / 2 to txns - 1 do
    commit cl j
  done;
  if not (Repl.sync cl) then failwith "repl bench: failover did not converge";
  let reconverge_ticks = Repl.now cl - t0 in
  (* catch-up: partition standby 0, commit without it, heal, drain *)
  let drop_everything =
    Lvm_fault.Plan.create
      [ { Lvm_fault.Plan.site = Lvm_fault.Fault.Net_frame;
          trigger = Lvm_fault.Plan.Every 1; fault = Lvm_fault.Fault.Net_drop };
        { Lvm_fault.Plan.site = Lvm_fault.Fault.Net_ack;
          trigger = Lvm_fault.Plan.Every 1; fault = Lvm_fault.Fault.Net_drop }
      ]
  in
  let cl2 = Repl.create { Repl.Config.default with replicas } in
  for j = 0 to (txns / 2) - 1 do
    commit cl2 j
  done;
  if not (Repl.sync cl2) then failwith "repl bench: baseline did not converge";
  Repl.set_net_plan cl2 (Some drop_everything);
  for j = txns / 2 to txns - 1 do
    commit ~gap:1 cl2 j
  done;
  let behind = Repl.stream_end cl2 - Repl.replica_applied cl2 0 in
  Repl.set_net_plan cl2 None;
  let t1 = Repl.now cl2 in
  if not (Repl.sync cl2) then failwith "repl bench: catch-up did not converge";
  let catchup_ticks = max 1 (Repl.now cl2 - t1) in
  let throughput = float_of_int behind /. float_of_int catchup_ticks in
  Format.fprintf ppf
    "repl (%d txns, %d replicas): failover %d ticks (r%d serving at epoch \
     %d), reconverge %d ticks; catch-up %d bytes in %d ticks (%.1f \
     bytes/tick)@."
    txns replicas promo.Repl.failover_ticks promo.Repl.new_primary
    promo.Repl.new_epoch reconverge_ticks behind catchup_ticks throughput;
  match json_file with
  | None -> ()
  | Some file ->
    let open Lvm_tools.Output_stream.Envelope in
    let line =
      render ~kind:"repl"
        [ ("txns", Int txns); ("replicas", Int replicas);
          ("failover",
           Obj
             [ ("new_primary", Int promo.Repl.new_primary);
               ("new_epoch", Int promo.Repl.new_epoch);
               ("applied_bytes", Int promo.Repl.applied_bytes);
               ("folded_bytes", Int promo.Repl.folded_bytes);
               ("failover_ticks", Int promo.Repl.failover_ticks);
               ("reconverge_ticks", Int reconverge_ticks) ]);
          ("catchup",
           Obj
             [ ("behind_bytes", Int behind);
               ("ticks", Int catchup_ticks);
               ("bytes_per_tick", Float throughput) ]) ]
    in
    let oc = open_out file in
    output_string oc line;
    output_char oc '\n';
    close_out oc;
    Printf.printf "repl failover/catch-up written to %s\n%!" file

(* {1 Hot-shard survival (simulated cycles)}

   The same seeded single-shard transaction count at 1/2/4/8 shards
   under three key distributions: uniform, Zipfian(1.2) with the hot
   ranks clustered on shard 0, and the same Zipfian mix with the
   dynamic splitter enabled. Skew serializes the run on the hot shard;
   the splitter's job is to buy the lost throughput back by fanning the
   hot buckets out mid-run. The headline figure is the 4-shard recovery
   ratio — Zipfian-with-split cycles/txn against uniform — which the
   issue pins at >= 0.70. [--hotshard-json FILE] records the whole
   matrix plus that ratio (the BENCH_8.json blob). *)

let hotshard_point ~shards ~txns ~dist ~split =
  let st =
    Lvm_store.Store.create { Lvm_store.Store.Config.default with shards }
  in
  (* Single-write transactions: the classic hot-key mix. A multi-write
     Zipfian transaction is nearly always cross-shard (independent
     draws land on different shards), and no routing change can buy
     back 2PC — splitting addresses queue imbalance, so that is what
     the matrix isolates. *)
  Lvm_store.Workload.run st
    { Lvm_store.Workload.default with
      txns; cross_pct = 0; writes_per_txn = 1; dist; split }

let hotshard_comparison ?json_file ppf =
  let txns = 1200 and theta = 1.1 in
  (* Eager advisor: at one write per transaction a [check_every] round
     must clear the [min_delta] write gate, the default 1.6x imbalance
     trigger would stop after one move (still ~1.4x above average),
     and the default merge threshold would send the hot buckets home
     again mid-run — so split down to 1.2x and never merge. *)
  let split_spec =
    { Lvm_store.Workload.check_every = 40; batch = 32; max_moves = 8;
      advisor =
        { Lvm_store.Splitter.Config.default with
          min_delta = 24; imbalance = 1.2; merge_below = 0.0 } }
  in
  let rows =
    List.map
      (fun shards ->
        let uniform =
          hotshard_point ~shards ~txns ~dist:Lvm_store.Workload.Uniform
            ~split:None
        in
        let zipf =
          hotshard_point ~shards ~txns
            ~dist:(Lvm_store.Workload.Zipfian { theta }) ~split:None
        in
        let zipf_split =
          hotshard_point ~shards ~txns
            ~dist:(Lvm_store.Workload.Zipfian { theta })
            ~split:(Some split_spec)
        in
        (shards, uniform, zipf, zipf_split))
      [ 1; 2; 4; 8 ]
  in
  let recovery (u : Lvm_store.Workload.result)
      (zs : Lvm_store.Workload.result) =
    u.cycles_per_txn /. zs.cycles_per_txn
  in
  List.iter
    (fun (shards, u, z, zs) ->
      Format.fprintf ppf
        "hotshard (%d txns, %d shard%s): uniform %.1f c/txn; zipf(%.1f) \
         %.1f c/txn; zipf+split %.1f c/txn (%d split%s, %d merge%s, %d \
         moved) — recovery %.2f@."
        txns shards
        (if shards = 1 then "" else "s")
        u.Lvm_store.Workload.cycles_per_txn theta
        z.Lvm_store.Workload.cycles_per_txn
        zs.Lvm_store.Workload.cycles_per_txn zs.Lvm_store.Workload.splits
        (if zs.Lvm_store.Workload.splits = 1 then "" else "s")
        zs.Lvm_store.Workload.merges
        (if zs.Lvm_store.Workload.merges = 1 then "" else "s")
        zs.Lvm_store.Workload.moved (recovery u zs))
    rows;
  let _, u4, _, zs4 =
    List.find (fun (shards, _, _, _) -> shards = 4) rows
  in
  let recovery4 = recovery u4 zs4 in
  Format.fprintf ppf "hotshard 4-shard recovery: %.2f (target >= 0.70)@."
    recovery4;
  if recovery4 < 0.70 then
    failwith
      (Printf.sprintf
         "hotshard bench: 4-shard Zipfian+split recovery %.2f (< 0.70)"
         recovery4);
  match json_file with
  | None -> ()
  | Some file ->
    let open Lvm_tools.Output_stream.Envelope in
    let point (r : Lvm_store.Workload.result) =
      Obj
        [ ("executed", Int r.executed); ("shed", Int r.shed);
          ("failed", Int r.failed); ("moved", Int r.moved);
          ("splits", Int r.splits); ("merges", Int r.merges);
          ("wall_cycles", Int r.wall_cycles);
          ("cycles_per_txn", Float r.cycles_per_txn) ]
    in
    let line =
      render ~kind:"hotshard"
        [ ("txns", Int txns); ("theta", Float theta);
          ("rows",
           List
             (List.map
                (fun (shards, u, z, zs) ->
                  Obj
                    [ ("shards", Int shards); ("uniform", point u);
                      ("zipf", point z); ("zipf_split", point zs);
                      ("recovery", Float (recovery u zs)) ])
                rows));
          ("recovery_at_4", Float recovery4) ]
    in
    let oc = open_out file in
    output_string oc line;
    output_char oc '\n';
    close_out oc;
    Printf.printf "hotshard matrix written to %s\n%!" file

(* {1 Logging-bandwidth diet (codec x coalescing matrix)}

   The BENCH_4-style saturation loop and a BENCH_5-style transaction
   workload through the four corners of the diet matrix — coalescing
   off/on x Raw16 (V0) / run+delta (V1). The overload leg drives tight
   logged bursts with hot rewrites straight at the FIFOs; the WAL leg
   runs RLVM transactions with truncation gated off and measures WAL
   bytes per transaction plus a full recovery replay. The headline
   checks ride the run: v1+coalescing must overload less than both the
   v0 baseline and the seed's 261, cut WAL bytes/txn by >= 30%, and
   every corner must recover byte-identical images.
   [--logdiet-json FILE] records the matrix (the BENCH_9.json blob). *)

type logdiet_overload = {
  ld_overloads : int;
  ld_cycles : int;
  ld_stream_bytes : int;  (** encoded bytes emitted over the whole run *)
}

type logdiet_wal = {
  ld_wal_bytes : int;
  ld_bytes_per_txn : float;
  ld_replayed : int;
  ld_recovery_ms : float;
  ld_image : Bytes.t;
}

let logdiet_config_name ~codec ~coalesce_depth =
  Printf.sprintf "%s%s"
    (Lvm_machine.Log_record.version_to_string codec)
    (if coalesce_depth > 0 then Printf.sprintf "+co%d" coalesce_depth else "")

let logdiet_overload_point ~codec ~coalesce_depth =
  let seg_bytes = 64 * 1024 in
  let log_pages = 64 in
  let k = Kernel.create ~frames:256 ~codec ~coalesce_depth () in
  let sp = Kernel.create_space k in
  let seg = Kernel.create_segment k ~size:seg_bytes in
  let region = Kernel.create_region k seg in
  let ls = Kernel.create_log_segment k ~size:(log_pages * Addr.page_size) in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  for p = 0 to (seg_bytes / Addr.page_size) - 1 do
    ignore (Kernel.read_word k sp (base + (p * Addr.page_size)))
  done;
  Logger.flush (Machine.logger (Kernel.machine k));
  let perf = Kernel.perf k in
  Perf.reset perf;
  let pos = ref 0 in
  let recycle_at = (log_pages - 8) * Addr.page_size in
  let t0 = Kernel.time k in
  for i = 0 to 1999 do
    Kernel.compute k 20;
    (* a sequential burst (run-shaped) ... *)
    for w = 0 to 15 do
      Kernel.write_word k sp (base + !pos) (i + w);
      pos := (!pos + Addr.word_size) mod seg_bytes
    done;
    (* ... plus hot rewrites where only the last value matters *)
    for v = 0 to 7 do
      Kernel.write_word k sp base (i + v)
    done;
    (* each iteration ends at a commit boundary: hard sync drains the
       coalescing buffer, exactly what a transaction commit does *)
    Kernel.sync_log k ls;
    if Segment.write_pos ls >= recycle_at then
      Lvm_log.truncate_suffix (Lvm_log.of_segment k ls) ~new_end:0
  done;
  let cycles = Kernel.time k - t0 in
  Logger.complete_pending (Machine.logger (Kernel.machine k));
  let stream_bytes =
    match codec with
    | Log_record.V1 ->
      let snap = Kernel.snapshot k in
      if Lvm_obs.Snapshot.mem snap "log.bytes_encoded" then
        Lvm_obs.Snapshot.get snap "log.bytes_encoded"
      else 0
    | Log_record.V0 -> perf.Perf.log_records * Log_record.bytes
  in
  { ld_overloads = perf.Perf.overloads; ld_cycles = cycles;
    ld_stream_bytes = stream_bytes }

let logdiet_wal_point ~codec ~coalesce_depth =
  let k = Kernel.create ~codec ~coalesce_depth () in
  let sp = Kernel.create_space k in
  let r =
    Lvm_rvm.Rlvm.make
      { Lvm_rvm.Rlvm.Config.default with log_pages = 64 }
      k sp ~size:4096
  in
  let disk = Lvm_rvm.Rlvm.disk r in
  (* let the WAL accumulate the whole run so recovery replays it all *)
  Lvm_rvm.Ramdisk.set_truncate_gate disk (Some (fun () -> false));
  let txns = 64 in
  for t = 1 to txns do
    Lvm_rvm.Rlvm.begin_txn r;
    for w = 0 to 15 do
      Lvm_rvm.Rlvm.write_word r ~off:(4 * (((t * 16) + w) mod 1024)) (t + w)
    done;
    for v = 1 to 8 do
      Lvm_rvm.Rlvm.write_word r ~off:0 ((t * 100) + v)
    done;
    Lvm_rvm.Rlvm.commit r
  done;
  let wal_bytes = Lvm_rvm.Ramdisk.wal_bytes disk in
  let t0 = Sys.time () in
  let image, rep = Lvm_rvm.Ramdisk.recover disk in
  let recovery_ms = (Sys.time () -. t0) *. 1000. in
  { ld_wal_bytes = wal_bytes;
    ld_bytes_per_txn = float_of_int wal_bytes /. float_of_int txns;
    ld_replayed = rep.Lvm_rvm.Ramdisk.replayed;
    ld_recovery_ms = recovery_ms; ld_image = image }

let logdiet_comparison ?json_file ppf =
  let matrix =
    [ (Lvm_machine.Log_record.V0, 0); (Lvm_machine.Log_record.V0, 64);
      (Lvm_machine.Log_record.V1, 0); (Lvm_machine.Log_record.V1, 64) ]
  in
  let rows =
    List.map
      (fun (codec, coalesce_depth) ->
        let o = logdiet_overload_point ~codec ~coalesce_depth in
        let w = logdiet_wal_point ~codec ~coalesce_depth in
        ((codec, coalesce_depth), o, w))
      matrix
  in
  List.iter
    (fun ((codec, depth), o, w) ->
      Format.fprintf ppf
        "logdiet %-8s: %4d overloads, %7d stream B; WAL %.1f B/txn, \
         recovery replayed %d in %.1f ms@."
        (logdiet_config_name ~codec ~coalesce_depth:depth)
        o.ld_overloads o.ld_stream_bytes w.ld_bytes_per_txn w.ld_replayed
        w.ld_recovery_ms)
    rows;
  let find c d =
    let _, o, w = List.find (fun ((c', d'), _, _) -> c' = c && d' = d) rows in
    (o, w)
  in
  let o_v0, w_v0 = find Lvm_machine.Log_record.V0 0 in
  let o_v1c, w_v1c = find Lvm_machine.Log_record.V1 64 in
  let reduction = 1. -. (w_v1c.ld_bytes_per_txn /. w_v0.ld_bytes_per_txn) in
  Format.fprintf ppf
    "logdiet headline: overloads %d -> %d (seed 261); WAL bytes/txn %.1f \
     -> %.1f (%.0f%% saved, target >= 30%%)@."
    o_v0.ld_overloads o_v1c.ld_overloads w_v0.ld_bytes_per_txn
    w_v1c.ld_bytes_per_txn (100. *. reduction);
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if o_v1c.ld_overloads >= min 261 o_v0.ld_overloads then
    fail "v1+coalesce overloads %d, need < min(261, v0 %d)"
      o_v1c.ld_overloads o_v0.ld_overloads;
  if reduction < 0.30 then
    fail "WAL bytes/txn reduction %.2f, need >= 0.30" reduction;
  List.iter
    (fun ((codec, depth), _, w) ->
      if not (Bytes.equal w.ld_image w_v0.ld_image) then
        fail "%s recovered image differs from the v0 baseline"
          (logdiet_config_name ~codec ~coalesce_depth:depth))
    rows;
  List.iter (fun f -> Format.fprintf ppf "FAIL: %s@." f) !failures;
  Format.pp_print_flush ppf ();
  (match json_file with
  | None -> ()
  | Some file ->
    let open Lvm_tools.Output_stream.Envelope in
    let line =
      render ~kind:"logdiet"
        [ ("seed_overloads", Int 261);
          ("rows",
           List
             (List.map
                (fun ((codec, depth), o, w) ->
                  Obj
                    [ ("config",
                       String (logdiet_config_name ~codec ~coalesce_depth:depth));
                      ("codec",
                       String (Lvm_machine.Log_record.version_to_string codec));
                      ("coalesce_depth", Int depth);
                      ("overloads", Int o.ld_overloads);
                      ("overload_cycles", Int o.ld_cycles);
                      ("stream_bytes", Int o.ld_stream_bytes);
                      ("wal_bytes", Int w.ld_wal_bytes);
                      ("wal_bytes_per_txn", Float w.ld_bytes_per_txn);
                      ("recovery_replayed", Int w.ld_replayed);
                      ("recovery_ms", Float w.ld_recovery_ms) ])
                rows));
          ("wal_reduction", Float reduction);
          ("overloads_v0", Int o_v0.ld_overloads);
          ("overloads_v1_coalesce", Int o_v1c.ld_overloads) ]
    in
    let oc = open_out file in
    output_string oc line;
    output_char oc '\n';
    close_out oc;
    Printf.printf "logdiet matrix written to %s\n%!" file);
  if !failures <> [] then exit 1

(* {1 MVCC snapshot reads (worker vs snapshot read matrix)}

   A 95/5 read-heavy Zipfian(1.1) mix at 1 and 4 shards, the reads
   served two ways: by the shard workers (each read is scheduled like a
   transaction and its per-request compute lands on the owning shard's
   CPU — under skew the hot shard serializes them behind the writes)
   and from log-derived MVCC snapshots on virtual reader tasks
   (wait-free version-chain lookups on the readers' own clocks, no
   shard CPU touched). A reader-scaling leg re-runs the snapshot point
   at 4 shards with 1/2/4 readers. Headline checks ride the run:
   snapshot-read throughput at 4 shards must be >= 2x the worker-read
   point, and adding readers must not lose throughput.
   [--mvcc-json FILE] records the matrix (the BENCH_10.json blob). *)

let mvcc_point ~shards ~txns ~mode ~readers =
  let st =
    Lvm_store.Store.create
      { Lvm_store.Store.Config.default with shards; group = 16 }
  in
  (* Single-write transactions (as in the hotshard matrix): a
     multi-write Zipfian transaction is nearly always cross-shard and
     2PC would dominate both modes' wall clock, drowning the read-path
     difference the matrix isolates. *)
  Lvm_store.Workload.run st
    { Lvm_store.Workload.default with
      txns; cross_pct = 0; writes_per_txn = 1;
      dist = Lvm_store.Workload.Zipfian { theta = 1.1 };
      read_pct = 95; read_mode = mode; readers }

(* Committed writes plus served reads per kilocycle of wall clock. *)
let mvcc_throughput (r : Lvm_store.Workload.result) =
  1000.
  *. float_of_int (r.Lvm_store.Workload.executed + r.Lvm_store.Workload.reads)
  /. float_of_int (max 1 r.Lvm_store.Workload.wall_cycles)

let mvcc_comparison ?json_file ppf =
  let txns = 2000 and readers = 4 in
  let rows =
    List.map
      (fun shards ->
        let worker =
          mvcc_point ~shards ~txns ~mode:Lvm_store.Workload.Worker ~readers:1
        in
        let snapshot =
          mvcc_point ~shards ~txns ~mode:Lvm_store.Workload.Snapshot ~readers
        in
        (shards, worker, snapshot))
      [ 1; 4 ]
  in
  List.iter
    (fun (shards, w, s) ->
      Format.fprintf ppf
        "mvcc (%d ops, %d shard%s): worker %d reads %.2f ops/kcycle; \
         snapshot (%d readers) %d reads %.2f ops/kcycle — %.2fx@."
        txns shards
        (if shards = 1 then "" else "s")
        w.Lvm_store.Workload.reads (mvcc_throughput w) readers
        s.Lvm_store.Workload.reads (mvcc_throughput s)
        (mvcc_throughput s /. mvcc_throughput w))
    rows;
  let scaling =
    List.map
      (fun readers ->
        ( readers,
          mvcc_point ~shards:4 ~txns ~mode:Lvm_store.Workload.Snapshot
            ~readers ))
      [ 1; 2; 4 ]
  in
  List.iter
    (fun (readers, r) ->
      Format.fprintf ppf
        "mvcc reader scaling (4 shards): %d reader%s %.2f ops/kcycle@."
        readers
        (if readers = 1 then "" else "s")
        (mvcc_throughput r))
    scaling;
  let _, w4, s4 = List.find (fun (shards, _, _) -> shards = 4) rows in
  let speedup4 = mvcc_throughput s4 /. mvcc_throughput w4 in
  Format.fprintf ppf "mvcc 4-shard snapshot speedup: %.2fx (target >= 2x)@."
    speedup4;
  if speedup4 < 2.0 then
    failwith
      (Printf.sprintf
         "mvcc bench: snapshot reads %.2fx worker reads at 4 shards (< 2x)"
         speedup4);
  (let tp r = mvcc_throughput (List.assoc r scaling) in
   if tp 4 < tp 1 then
     failwith "mvcc bench: snapshot reads do not scale with reader count");
  match json_file with
  | None -> ()
  | Some file ->
    let open Lvm_tools.Output_stream.Envelope in
    let point (r : Lvm_store.Workload.result) =
      Obj
        [ ("executed", Int r.Lvm_store.Workload.executed);
          ("reads", Int r.Lvm_store.Workload.reads);
          ("failed", Int r.Lvm_store.Workload.failed);
          ("wall_cycles", Int r.Lvm_store.Workload.wall_cycles);
          ("ops_per_kcycle", Float (mvcc_throughput r)) ]
    in
    let line =
      render ~kind:"mvcc"
        [ ("ops", Int txns); ("read_pct", Int 95); ("theta", Float 1.1);
          ("readers", Int readers);
          ("rows",
           List
             (List.map
                (fun (shards, w, s) ->
                  Obj
                    [ ("shards", Int shards); ("worker", point w);
                      ("snapshot", point s);
                      ("speedup",
                       Float (mvcc_throughput s /. mvcc_throughput w)) ])
                rows));
          ("reader_scaling",
           List
             (List.map
                (fun (readers, r) ->
                  Obj [ ("readers", Int readers); ("point", point r) ])
                scaling));
          ("speedup_at_4", Float speedup4) ]
    in
    let oc = open_out file in
    output_string oc line;
    output_char oc '\n';
    close_out oc;
    Printf.printf "mvcc matrix written to %s\n%!" file

(* {1 Entry point} *)

(* Write a single enveloped JSON metrics blob (counters + histograms
   merged across every machine the run created) to [file]. *)
let write_metrics file collector =
  Lvm_tools.Metrics.write_file ~label:"bench" ~file collector;
  Printf.printf "metrics written to %s\n%!" file

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let flag_value name =
    let rec go = function
      | f :: v :: _ when f = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let metrics_file = flag_value "--metrics" in
  (* --cpus N parameterizes the multicpu micro-benchmark fixture. *)
  let cpus =
    match flag_value "--cpus" with Some v -> int_of_string v | None -> 4
  in
  let ppf = Format.std_formatter in
  if List.mem "--list" args then
    List.iter
      (fun e ->
        Printf.printf "%-14s %s\n" e.Lvm_experiments.Experiments.id
          e.Lvm_experiments.Experiments.description)
      Lvm_experiments.Experiments.all
  else if List.mem "--store" args then
    (* The store scaling leg alone (what generates BENCH_5.json). *)
    store_scaling_comparison ?json_file:(flag_value "--store-json") ppf
  else if List.mem "--fams" args then
    (* The FAMS three-way leg alone (what generates BENCH_6.json). *)
    fams_comparison ?json_file:(flag_value "--fams-json") ppf
  else if List.mem "--repl" args then
    (* The replication leg alone (what generates BENCH_7.json). *)
    repl_comparison ?json_file:(flag_value "--repl-json") ppf
  else if List.mem "--hotshard" args then
    (* The hot-shard matrix alone (what generates BENCH_8.json). *)
    hotshard_comparison ?json_file:(flag_value "--hotshard-json") ppf
  else if List.mem "--logdiet" args then
    (* The codec/coalescing matrix alone (what generates BENCH_9.json). *)
    logdiet_comparison ?json_file:(flag_value "--logdiet-json") ppf
  else if List.mem "--mvcc" args then
    (* The snapshot-read matrix alone (what generates BENCH_10.json). *)
    mvcc_comparison ?json_file:(flag_value "--mvcc-json") ppf
  else begin
    let (), collector =
      Lvm_obs.Collector.with_collector (fun () ->
          match flag_value "--only" with
          | Some id -> (
            match Lvm_experiments.Experiments.find id with
            | Some e -> e.Lvm_experiments.Experiments.run ~quick ppf
            | None ->
              Printf.eprintf "unknown experiment %s (try --list)\n" id;
              exit 1)
          | None ->
            Lvm_experiments.Experiments.run_all ~quick ppf;
            group_commit_comparison ppf;
            store_scaling_comparison ?json_file:(flag_value "--store-json")
              ppf;
            fams_comparison ?json_file:(flag_value "--fams-json") ppf;
            repl_comparison ?json_file:(flag_value "--repl-json") ppf;
            hotshard_comparison ?json_file:(flag_value "--hotshard-json") ppf;
            logdiet_comparison ?json_file:(flag_value "--logdiet-json") ppf;
            mvcc_comparison ?json_file:(flag_value "--mvcc-json") ppf)
    in
    Format.pp_print_flush ppf ();
    Option.iter (fun file -> write_metrics file collector) metrics_file;
    if not (List.mem "--no-bechamel" args) then run_bechamel ~cpus ()
  end
