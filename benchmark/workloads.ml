(* The four benchmark workloads, driven through the libraries' public
   functions. Each is a closed loop from one thread. A run is a series of
   rounds; [setup] builds a fresh system for one round and runs one
   warm-up unit, then every [step] runs the next measured unit (one TPC-A
   transaction, one 2 000-op store batch, one TimeWarp slice) and reports
   its committed ops and simulated cycles, and [check] is the round's
   correctness gate. All inputs derive from the round's seed. *)

open Lvm_vm
module Tpca = Lvm_tpc.Tpca
module Rlvm = Lvm_rvm.Rlvm
module Store = Lvm_store.Store
module Workload = Lvm_store.Workload
module Timewarp = Lvm_sim.Timewarp

type sample = { ops : int; sim_cycles : int }

type instance = {
  kernel : Kernel.t;
  step : unit -> sample;
  counts : unit -> (string * int) list;
      (* workload-level integer counters since measuring began *)
  attempted : unit -> int;
  failed : unit -> int;
  check : unit -> ((string * float) list, string) result;
      (* the correctness gate; on success, named facts it measured (its
         host timings in ms, known-defect counts) *)
}

type t = {
  name : string;
  why : string;
  units : int; (* measured units per round *)
  rounds : int; (* rounds in the deterministic prefix *)
  unit_name : string;
  sample_every : int; (* raw span trees kept in the traced run: 1 in N *)
  setup : seed:int -> scale:int -> traced:bool -> instance;
}

(* Host milliseconds [f] takes, its result dropped. *)
let time_ms f =
  let t0 = Spans.now_ns () in
  ignore (f ());
  float_of_int (Spans.now_ns () - t0) /. 1e6

let traced_store (s : Tpca.store) =
  let span name f = Spans.with_ name f in
  { s with
    Tpca.begin_txn = (fun () -> span "rvm.begin_txn" s.Tpca.begin_txn);
    read_word = (fun ~off -> span "rvm.read_word" (fun () -> s.read_word ~off));
    write_word =
      (fun ~off v -> span "rvm.write_word" (fun () -> s.write_word ~off v));
    commit = (fun () -> span "rvm.commit" s.commit) }

(* {1 TPC-A over RLVM (paper Table 3)} *)

let tpca ~seed ~scale ~traced =
  let bank =
    Lvm_tpc.Bank.layout ~branches:4 ~tellers:40 ~accounts:400 ~history:256
  in
  let k = Kernel.create () in
  let sp = Kernel.create_space k in
  let r =
    Rlvm.make Rlvm.Config.default k sp ~size:(Lvm_tpc.Bank.segment_bytes bank)
  in
  let plain = Tpca.rlvm_store r in
  let disk = Rlvm.disk r in
  (* WAL bytes appended = live log growth plus what truncation consumed. *)
  let truncated = ref 0 in
  Lvm_rvm.Ramdisk.set_on_truncate disk
    (Some (fun ~removed -> truncated := !truncated + removed));
  let appended () = Lvm_rvm.Ramdisk.log_bytes disk + !truncated in
  Tpca.setup plain bank;
  let rng = Random.State.make [| seed |] in
  let slot = ref 0 in
  let txn store =
    Tpca.transaction store bank ~rng ~history_slot:!slot;
    incr slot
  in
  for _ = 1 to max 20 (2000 / scale) do
    txn plain
  done;
  let store = if traced then traced_store plain else plain in
  let txns = ref 0 and wal0 = appended () in
  let step () =
    let t0 = Kernel.time k in
    if traced then Spans.with_ "tpca.txn" (fun () -> txn store) else txn store;
    incr txns;
    { ops = 1; sim_cycles = Kernel.time k - t0 }
  in
  let check () =
    let total = Tpca.total_balance plain bank in
    let ms =
      time_ms (fun () -> Spans.with_ "rvm.recover" (fun () -> Rlvm.recover r))
    in
    if not (Tpca.balance_invariant plain bank) then
      Error "tpca-rlvm: balance invariant broken after recovery"
    else if Tpca.total_balance plain bank <> total then
      Error "tpca-rlvm: total balance changed across recovery"
    else Ok [ ("rvm.recover_ms", ms) ]
  in
  { kernel = k; step;
    counts = (fun () -> [ ("txns", !txns); ("wal_bytes", appended () - wal0) ]);
    attempted = (fun () -> !txns);
    failed = (fun () -> 0);
    check }

(* {1 The sharded 2PC store} *)

type store_result = {
  mutable executed : int;
  mutable reads : int;
  mutable cross : int;
  mutable lost : int; (* shed + failed + dropped *)
  mutable requeued : int;
  mutable wall : int;
  shard_cycles : int array;
}

let store_workload ~keys ~group ~spec ~read_check ~seed ~scale ~traced:_ =
  let st =
    Store.create { Store.Config.default with shards = 4; keys; group }
  in
  let batch = max 20 (2000 / scale) in
  let run b =
    Workload.run st { spec with Workload.txns = batch; seed = (seed * 1000) + b }
  in
  ignore (run 0);
  let acc =
    { executed = 0; reads = 0; cross = 0; lost = 0; requeued = 0; wall = 0;
      shard_cycles = Array.make 4 0 }
  in
  let b = ref 0 in
  let step () =
    incr b;
    let r = Spans.with_ "store.batch" (fun () -> run !b) in
    acc.executed <- acc.executed + r.Workload.executed;
    acc.reads <- acc.reads + r.reads;
    acc.cross <- acc.cross + r.cross;
    acc.lost <- acc.lost + r.shed + r.failed + r.dropped;
    acc.requeued <- acc.requeued + r.requeued;
    acc.wall <- acc.wall + r.wall_cycles;
    Array.iteri
      (fun i s -> acc.shard_cycles.(i) <- acc.shard_cycles.(i) + s.Workload.cycles)
      r.per_shard;
    { ops = r.executed + r.reads; sim_cycles = r.wall_cycles }
  in
  let read_all what =
    List.init keys (fun key ->
        match Spans.with_ "store.read" (fun () -> Store.read st key) with
        | Ok v -> v
        | Error e ->
          failwith
            (Printf.sprintf "%s: key %d: %s" what key
               (Lvm.Lvm_error.to_string e)))
  in
  (* After a quiescent run every 2PC intent is retired, so recovery
     should roll nothing forward. It sometimes does: a retire marker
     appended after a coordinator-log truncation consumed its
     transaction's Commit record is never replayed, and recovery
     re-applies the stale intent over newer commits (a known store
     defect, see README.md). Key changes that such roll-forwards can
     explain are counted as [store.stale_redo_*]; any other change fails
     the gate. *)
  let check () =
    match
      Spans.with_ "store.flush" (fun () -> Store.flush st);
      let before = read_all "read before recovery" in
      let redone = ref [] in
      let ms =
        time_ms (fun () ->
            Spans.with_ "store.recover" (fun () ->
                redone := (Store.recover st).Store.redone))
      in
      let after = read_all "read after recovery" in
      (before, after, ms, !redone)
    with
    | exception Failure msg -> Error msg
    | before, after, ms, redone ->
      let changed =
        List.fold_left2 (fun n b a -> if b = a then n else n + 1) 0 before after
      in
      let redone_writes = List.fold_left (fun n (_, w) -> n + w) 0 redone in
      if changed > redone_writes then
        Error (Printf.sprintf "store: %d keys changed across recovery" changed)
      else if acc.lost > 0 then
        Error (Printf.sprintf "store: %d operations shed, failed or dropped" acc.lost)
      else
        Result.map
          (fun () ->
            [ ("store.recover_ms", ms);
              ("store.stale_redo_txns", float_of_int (List.length redone));
              ("store.stale_redo_keys", float_of_int changed) ])
          (read_check st after)
  in
  { kernel = Store.kernel st; step;
    counts =
      (fun () ->
        [ ("batches", !b); ("executed", acc.executed); ("reads", acc.reads);
          ("cross", acc.cross); ("lost", acc.lost); ("requeued", acc.requeued);
          ("wall_cycles", acc.wall) ]
        @ List.mapi
            (fun i c -> (Printf.sprintf "shard%d_cycles" i, c))
            (Array.to_list acc.shard_cycles));
    attempted = (fun () -> !b * batch);
    failed = (fun () -> acc.lost);
    check }

let no_read_check _ _ = Ok ()

(* After recovery, a fresh snapshot must agree with [Store.read]. *)
let snapshot_read_check st after =
  match Spans.with_ "mvcc.acquire" (fun () -> Store.Snapshot.acquire st) with
  | Error e -> Error ("snapshot acquire: " ^ Lvm.Lvm_error.to_string e)
  | Ok snap ->
    let bad =
      List.filteri
        (fun key v ->
          match Spans.with_ "mvcc.read" (fun () -> Store.Snapshot.read snap key) with
          | Ok v' -> v' <> v
          | Error _ -> true)
        after
    in
    Store.Snapshot.release snap;
    if bad = [] then Ok ()
    else
      Error
        (Printf.sprintf "store-read95-zipf: %d keys differ between a fresh \
                         snapshot and Store.read" (List.length bad))

let store_2pc =
  store_workload ~keys:4096 ~group:1 ~read_check:no_read_check
    ~spec:{ Workload.default with cross_pct = 20; writes_per_txn = 4 }

let store_read95 =
  store_workload ~keys:1024 ~group:16 ~read_check:snapshot_read_check
    ~spec:
      { Workload.default with
        cross_pct = 0; writes_per_txn = 1;
        dist = Workload.Zipfian { theta = 1.1 };
        read_pct = 95; read_mode = Workload.Snapshot; readers = 4 }

(* {1 TimeWarp PHOLD (paper sections 2.4 and 4.3)} *)

let phold_objects = 64
let slice = 200

let timewarp ~seed ~scale:_ ~traced:_ =
  let app =
    Lvm_sim.Phold.app ~objects:phold_objects ~object_words:64
      ~locality_pct:50 ~compute:300 ~seed ()
  in
  let e =
    Timewarp.create ~cpus:4 ~n_schedulers:4
      ~strategy:Lvm_sim.State_saving.Lvm_based ~app ()
  in
  Lvm_sim.Phold.inject_population e ~objects:phold_objects
    ~population:phold_objects ~seed;
  let k = Lvm_sim.Scheduler.kernel (Timewarp.schedulers e).(0) in
  let end_time = ref slice in
  let last = ref (Timewarp.run e ~end_time:!end_time) in
  let first = !last in
  let slices = ref 0 in
  let step () =
    end_time := !end_time + slice;
    let r =
      Spans.with_ "sim.slice" (fun () -> Timewarp.run e ~end_time:!end_time)
    in
    let s =
      { ops = r.Timewarp.total_events_committed - !last.Timewarp.total_events_committed;
        sim_cycles = r.elapsed_cycles - !last.elapsed_cycles }
    in
    last := r;
    incr slices;
    s
  in
  let counts () =
    let r = !last and f = first in
    [ ("slices", !slices);
      ("events_processed", r.total_events_processed - f.total_events_processed);
      ("events_committed", r.total_events_committed - f.total_events_committed);
      ("rollbacks", r.total_rollbacks - f.total_rollbacks);
      ("anti_messages", r.total_anti_messages - f.total_anti_messages);
      ("wall_cycles", r.elapsed_cycles - f.elapsed_cycles) ]
  in
  let check () =
    let sum = ref 0 in
    for obj = 0 to phold_objects - 1 do
      sum := !sum + Timewarp.read_state e ~obj ~word:1
    done;
    if !sum = !last.total_events_committed then Ok []
    else
      Error
        (Printf.sprintf "timewarp-phold: object event counters sum to %d, \
                         engine committed %d" !sum !last.total_events_committed)
  in
  { kernel = k; step; counts;
    attempted = (fun () -> !last.total_events_committed - first.total_events_committed);
    failed = (fun () -> 0);
    check }

(* Sizes: a round is well under a second of host time, so a run has
   some 30 rounds to pick its fastest from; the prefix gives at least
   100 samples per workload (400 000 for TPC-A, whose p99.99 is the WAL
   truncation stall). read95 rounds stay short because recovery with the
   MVCC view attached is quadratic in the writes since the round began. *)
let all =
  [ { name = "tpca-rlvm";
      why = "Paper Table 3 TPC-A over RLVM on 1 CPU: logger write path, RLVM \
             commit and WAL force; no store, 2PC, MVCC or sim scheduler runs";
      units = 80_000; rounds = 5; unit_name = "txn"; sample_every = 64;
      setup = tpca };
    { name = "store-2pc-uniform";
      why = "4-shard store, uniform keys, 20% cross-shard 2PC, write-only: \
             effect-handler scheduler, 2PC intents, bus contention; MVCC \
             never attached";
      units = 8; rounds = 15; unit_name = "batch"; sample_every = 16;
      setup = store_2pc };
    { name = "store-read95-zipf";
      why = "Zipf(1.1) 95% snapshot reads beside group-committed writes on 4 \
             shards: MVCC applier, snapshot reads and the group-commit \
             batcher";
      units = 100; rounds = 5; unit_name = "batch"; sample_every = 16;
      setup = store_read95 };
    { name = "timewarp-phold";
      why = "Optimistic PHOLD on 4 CPUs: rollback by deferred-copy reset, \
             log-based state saving and the sim scheduler; no RLVM WAL";
      units = 12; rounds = 20; unit_name = "slice"; sample_every = 1;
      setup = timewarp } ]
