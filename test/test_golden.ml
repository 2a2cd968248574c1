(* Golden simulated cycles: exact cycle counts and machine counters of
   small fixed runs, pinned. The determinism suite only compares two
   runs of one build; these values catch a change that moves a simulated
   cycle while claiming to touch host-side code only (memory layout,
   lookup structures, the replay loop). A change that means to move
   cycles must update them and say so. *)

open Lvm_machine
open Lvm_sim

let counters (ps : Perf.t list) =
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 ps in
  [ ("l1_hits", sum (fun p -> p.Perf.l1_hits));
    ("l1_misses", sum (fun p -> p.Perf.l1_misses));
    ("bus_busy_cycles", sum (fun p -> p.Perf.bus_busy_cycles));
    ("log_records", sum (fun p -> p.Perf.log_records));
    ("dc_pages_scanned", sum (fun p -> p.Perf.dc_pages_scanned)) ]

(* Perf records of the distinct kernels behind an engine's schedulers
   (one shared kernel on a multi-CPU engine, one each on a 1-CPU one). *)
let engine_perfs engine =
  Array.fold_left
    (fun acc s ->
      let k = Scheduler.kernel s in
      if List.memq k acc then acc else k :: acc)
    [] (Timewarp.schedulers engine)
  |> List.rev_map Lvm_vm.Kernel.perf

let phold ~cpus ~n_schedulers ~strategy ~end_time () =
  let app = Phold.app ~objects:16 ~object_words:32 ~compute:300 ~seed:7 () in
  let engine = Timewarp.create ~cpus ~n_schedulers ~strategy ~app () in
  Phold.inject_population engine ~objects:16 ~population:16 ~seed:7;
  let r = Timewarp.run engine ~end_time in
  [ ("elapsed_cycles", r.Timewarp.elapsed_cycles);
    ("events_committed", r.Timewarp.total_events_committed);
    ("rollbacks", r.Timewarp.total_rollbacks) ]
  @ counters (engine_perfs engine)

let tpca () =
  let k = Lvm_vm.Kernel.create () in
  let sp = Lvm_vm.Kernel.create_space k in
  let bank =
    Lvm_tpc.Bank.layout ~branches:2 ~tellers:10 ~accounts:100 ~history:64
  in
  let rlvm =
    Lvm_rvm.Rlvm.make Lvm_rvm.Rlvm.Config.default k sp
      ~size:(Lvm_tpc.Bank.segment_bytes bank)
  in
  let store = Lvm_tpc.Tpca.rlvm_store rlvm in
  Lvm_tpc.Tpca.setup store bank;
  let r = Lvm_tpc.Tpca.run ~seed:3 store bank ~txns:300 in
  let report = Lvm_rvm.Rlvm.recover rlvm in
  ( [ ("txn_cycles", r.Lvm_tpc.Tpca.cycles);
      ("elapsed_cycles", Lvm_vm.Kernel.time k);
      ("recovery.scanned", report.Lvm_rvm.Ramdisk.scanned);
      ("recovery.committed", report.Lvm_rvm.Ramdisk.committed);
      ("recovery.replayed", report.Lvm_rvm.Ramdisk.replayed);
      ("recovery.truncated_bytes", report.Lvm_rvm.Ramdisk.truncated_bytes) ]
    @ counters [ Lvm_vm.Kernel.perf k ],
    Lvm_rvm.Ramdisk.recovery_to_string report )

(* Logged writes under the V1 codec, then a checkpoint rollback that
   replays the log's first half: the encoded-container walk of
   [Checkpoint.roll_forward]. *)
let v1_roll_forward () =
  let open Lvm_vm in
  let page = Addr.page_size in
  let k = Kernel.create ~codec:Log_record.V1 () in
  let sp = Kernel.create_space k in
  let checkpoint = Kernel.create_segment k ~size:(2 * page) in
  let working = Kernel.create_segment k ~size:(2 * page) in
  Kernel.declare_source k ~dst:working ~src:checkpoint ~offset:0;
  let region = Kernel.create_region k working in
  let ls = Kernel.create_log_segment k ~size:(16 * page) in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  for i = 0 to 599 do
    Kernel.compute k (i mod 5);
    (* runs of equal and slowly-changing values exercise Run and Delta *)
    Kernel.write_word k sp (base + (i * 12 mod (2 * page))) (i / 3)
  done;
  let records = Lvm.Log_reader.record_count k ls in
  let seen = ref 0 in
  Lvm.Checkpoint.rollback k ~space:sp ~working ~working_region:region ~base
    ~log:ls ~upto:(fun _ _ ->
      incr seen;
      !seen <= records / 2);
  [ ("records", records);
    ("elapsed_cycles", Kernel.time k);
    ("kept_records", Lvm.Log_reader.record_count k ls) ]
  @ counters [ Kernel.perf k ]

(* The RAM-disk WAL a small fixed RLVM run and a small fixed FAMS run
   leave behind, under the paper's V0 records and under V1 with
   coalescing: the MD5 of the serialized log bytes, the MD5 of the image
   recovery would rebuild from them, and the machine's clock. Pins what
   the redo encoder writes, byte for byte. *)
let wal_digests ~codec ~coalesce_depth =
  let digest disk =
    let open Lvm_rvm.Ramdisk in
    [ Digest.to_hex
        (Digest.bytes (log_read disk ~off:0 ~len:(log_bytes disk)));
      Digest.to_hex (Digest.bytes (recovered_image disk)) ]
  in
  let kernel () =
    let k = Lvm_vm.Kernel.create ~codec ~coalesce_depth () in
    (k, Lvm_vm.Kernel.create_space k)
  in
  let rlvm =
    let open Lvm_rvm in
    let k, sp = kernel () in
    let r = Rlvm.make { Rlvm.Config.default with group = 2 } k sp ~size:512 in
    let txn ws =
      Rlvm.begin_txn r;
      List.iter (fun (w, v) -> Rlvm.write_word r ~off:(4 * w) v) ws
    in
    for i = 0 to 4 do
      txn [ (i, i + 1); (i + 8, 0x80000000 lor i); (i, 0xFFFFFFFF - i) ];
      Rlvm.commit r
    done;
    txn [ (3, 77); (40, 78) ];
    Rlvm.abort r;
    txn [ (20, 0xDEADBEEF) ];
    Rlvm.crash_and_recover r;
    for i = 0 to 2 do
      txn [ (60 + i, i); (61 + i, 0x9000_0000 + i); (60 + i, 5 * i) ];
      Rlvm.commit r
    done;
    Rlvm.flush_commits r;
    digest (Rlvm.disk r) @ [ string_of_int (Lvm_vm.Kernel.max_time k) ]
  in
  let fams =
    let ok = function
      | Ok v -> v
      | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e)
    in
    let k, sp = kernel () in
    let f = ok (Lvm_fams.map Lvm_fams.Config.default k sp ~size:512) in
    for s = 0 to 3 do
      for i = 0 to 9 do
        ok (Lvm_fams.write_word f ~off:(4 * ((7 * s) + (3 * i) mod 128))
              (0x7FFF_FFFA + (s * i)))
      done;
      ignore (ok (Lvm_fams.snapshot f))
    done;
    ignore (ok (Lvm_fams.recover f));
    ok (Lvm_fams.write_word f ~off:200 0xC0FFEE);
    ignore (ok (Lvm_fams.snapshot f));
    digest (Lvm_fams.disk f) @ [ string_of_int (Lvm_vm.Kernel.max_time k) ]
  in
  [ ("rlvm", rlvm); ("fams", fams) ]

(* The sharded store's workload driver: every [Workload.result] field
   and every CPU's final clock for a few small fixed specs, and where a
   [Plan.crash_at] sweep over a cross-shard-heavy run lands its crashes.
   Pins the scheduler's order of work, spin by spin. *)
module Store = Lvm_store.Store
module Workload = Lvm_store.Workload

let schedule_specs =
  let w = Workload.default in
  [ ( "2pc uniform",
      { Store.Config.default with shards = 4; keys = 4096 },
      { w with txns = 300; seed = 1000 } );
    ( "cross 50 group 3",
      { Store.Config.default with shards = 4; group = 3 },
      { w with txns = 300; cross_pct = 50 } );
    ( "open loop queue cap",
      { Store.Config.default with shards = 4 },
      { w with
        txns = 300;
        arrival =
          Workload.Open
            { mean_gap = 20000; burst_every = 32; burst_len = 8;
              burst_gap = 2000 };
        queue_cap = Some 4 } );
    ( "zipf 1.1 split",
      { Store.Config.default with shards = 4; keys = 1024 },
      { w with
        txns = 300;
        dist = Workload.Zipfian { theta = 1.1 };
        split =
          Some
            { Workload.default_split with
              check_every = 24; batch = 16; max_moves = 4 } } );
    ( "read-heavy snapshot readers",
      { Store.Config.default with shards = 4; keys = 1024; group = 16 },
      { w with
        txns = 600; cross_pct = 0; writes_per_txn = 1;
        dist = Workload.Zipfian { theta = 1.1 };
        read_pct = 95; read_mode = Workload.Snapshot; readers = 4 } ) ]

let schedule (config, spec) =
  let st = Store.create config in
  let r = Workload.run st spec in
  let k = Store.kernel st in
  [ ("executed", r.Workload.executed);
    ("reads", r.Workload.reads);
    ("cross", r.Workload.cross);
    ("shed", r.Workload.shed);
    ("failed", r.Workload.failed);
    ("requeued", r.Workload.requeued);
    ("moved", r.Workload.moved);
    ("dropped", r.Workload.dropped);
    ("splits", r.Workload.splits);
    ("merges", r.Workload.merges);
    ("wall_cycles", r.Workload.wall_cycles);
    ( "cycles_per_txn_milli",
      int_of_float (Float.round (r.Workload.cycles_per_txn *. 1000.)) ) ]
  @ List.concat
      (Array.to_list
         (Array.mapi
            (fun i (s : Workload.shard_stat) ->
              [ (Printf.sprintf "shard%d.txns" i, s.txns);
                (Printf.sprintf "shard%d.cycles" i, s.cycles) ])
            r.Workload.per_shard))
  @ List.init (Lvm_vm.Kernel.cpus k) (fun cpu ->
        (Printf.sprintf "cpu%d.clock" cpu, Lvm_vm.Kernel.cpu_time k ~cpu))

(* Each point: the armed cycle, then the cycle and CPU the crash hit. *)
let crash_points () =
  let config = { Store.Config.default with shards = 4 } in
  let spec = { Workload.default with txns = 200; cross_pct = 50 } in
  let total =
    let st = Store.create config in
    ignore (Workload.run st spec);
    Lvm_vm.Kernel.max_time (Store.kernel st)
  in
  List.init 8 (fun i ->
      let at = 1 + (i * (total - 1) / 7) in
      let st = Store.create config in
      let m = Lvm_vm.Kernel.machine (Store.kernel st) in
      Lvm_machine.Machine.set_fault_plan m (Some (Lvm_fault.Plan.crash_at at));
      match Workload.run st spec with
      | _ -> (at, -1, -1)
      | exception Lvm_fault.Fault.Crashed { cycle; _ } ->
        (at, cycle, Lvm_machine.Machine.current_cpu m))

(* A store-2pc run (4 shards, 20% cross-shard) armed at cycles inside
   two of its horizon spins: on CPU 0 over [257776, 296568) and on CPU 1
   over [882080, 919994) of the unarmed run. The CPU that set each
   horizon already stands past the armed cycle, so the crash lands at
   its next crash boundary. Each point: the armed cycle, then the cycle
   and CPU the crash hit and [Kernel.max_time]; [0] is the unarmed run. *)
let spin_crashes () =
  let config = { Store.Config.default with shards = 4; keys = 4096 } in
  let spec = { Workload.default with txns = 200; cross_pct = 20 } in
  List.map
    (fun at ->
      let st = Store.create config in
      let k = Store.kernel st in
      let m = Lvm_vm.Kernel.machine k in
      if at > 0 then
        Lvm_machine.Machine.set_fault_plan m
          (Some (Lvm_fault.Plan.crash_at at));
      let cycle, cpu =
        match Workload.run st spec with
        | _ -> (-1, -1)
        | exception Lvm_fault.Fault.Crashed { cycle; _ } ->
          (cycle, Lvm_machine.Machine.current_cpu m)
      in
      (at, (cycle, cpu, Lvm_vm.Kernel.max_time k)))
    [ 0; 267853; 900001 ]

(* The located replay under each record path — prototype V0, V1, and
   the on-chip logger's virtual addresses with pre-image records — on
   the two Section 2.4 operations (a rollback to half the log, then a
   CULT of a prefix of what followed) and on a 4-scheduler TimeWarp
   PHOLD on a 2-CPU kernel, whose every rollback resets the deferred copy
   and rolls forward. Pins the images, the clocks and the counters. *)
let replay_paths ~hw ~record_old_values ~codec =
  let open Lvm_vm in
  let page = Addr.page_size in
  let image k seg =
    Digest.to_hex
      (Digest.string
         (String.init (Segment.size seg) (fun off ->
              Char.chr (Kernel.seg_read_raw k seg ~off ~size:1))))
  in
  let k = Kernel.create ~hw ~record_old_values ~codec () in
  let sp = Kernel.create_space k in
  let checkpoint = Kernel.create_segment k ~size:(2 * page) in
  let working = Kernel.create_segment k ~size:(2 * page) in
  Kernel.declare_source k ~dst:working ~src:checkpoint ~offset:0;
  let region = Kernel.create_region k working in
  let ls = Kernel.create_log_segment k ~size:(32 * page) in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  for i = 0 to 399 do
    Kernel.compute k (i mod 7);
    Kernel.write_word k sp (base + (i * 20 mod (2 * page))) (i * 3)
  done;
  let records = Lvm.Log_reader.record_count k ls in
  let seen = ref 0 in
  Lvm.Checkpoint.rollback k ~space:sp ~working ~working_region:region ~base
    ~log:ls ~upto:(fun _ _ ->
      incr seen;
      !seen <= records / 2);
  let rolled_back = image k working in
  for i = 0 to 199 do
    Kernel.write_word k sp (base + (i * 28 mod (2 * page))) (i + 7)
  done;
  let seen = ref 0 in
  let applied =
    Lvm.Checkpoint.cult k ~working ~checkpoint ~log:ls ~upto:(fun _ _ ->
        incr seen;
        !seen <= 250)
  in
  let kernel =
    Kernel.create ~hw ~record_old_values ~codec ~frames:(4 * 8192) ~cpus:2 ()
  in
  let app = Phold.app ~objects:8 ~object_words:16 ~compute:200 ~seed:11 () in
  let uid = ref 0 in
  let fresh_uid () =
    incr uid;
    !uid
  in
  let scheds =
    Array.init 4 (fun id ->
        Scheduler.create ~hw ~kernel ~cpu:(id mod 2) ~id ~n_schedulers:4
          ~strategy:State_saving.Lvm_based ~app ~fresh_uid ())
  in
  List.iter
    (fun (time, dst, payload) ->
      Scheduler.enqueue scheds.(dst mod 4)
        { Event.time; dst; payload; src = -1; send_time = 0;
          uid = fresh_uid () })
    (Phold.population ~objects:8 ~population:8 ~seed:11);
  (* Timewarp.run's rounds, on a kernel booted with [codec] *)
  let end_time = 400 in
  let rec deliver () =
    let moved = ref false in
    Array.iter
      (fun s ->
        List.iter
          (fun (dst, msg) ->
            moved := true;
            Scheduler.receive scheds.(dst) msg)
          (Scheduler.drain_outbox s))
      scheds;
    if !moved then deliver ()
  in
  let rec round () =
    Array.iter
      (fun s ->
        let rec batch n =
          if n > 0 && Scheduler.step s ~horizon:(end_time - 1) then
            batch (n - 1)
        in
        batch 8)
      scheds;
    deliver ();
    let gvt =
      Array.fold_left
        (fun acc s ->
          match Scheduler.min_pending_time s with
          | None -> acc
          | Some m -> min acc m)
        end_time scheds
    in
    Array.iter (fun s -> Scheduler.fossil_collect s ~gvt) scheds;
    if gvt < end_time then round ()
  in
  round ();
  let sum f = Array.fold_left (fun a s -> a + f (Scheduler.stats s)) 0 scheds in
  let state =
    String.concat ","
      (List.init 8 (fun obj ->
           string_of_int
             (Scheduler.read_state scheds.(obj mod 4) ~obj ~word:0)))
  in
  let int (name, v) = (name, string_of_int v) in
  [ ("rolled_back", rolled_back);
    ("working", image k working);
    ("checkpoint", image k checkpoint);
    ("tw_state", Digest.to_hex (Digest.string state)) ]
  @ List.map int
      ([ ("records", records);
         ("applied", applied);
         ("kept_records", Lvm.Log_reader.record_count k ls);
         ("max_time", Kernel.max_time k);
         ("tw_max_time", Kernel.max_time kernel);
         ("tw_rollbacks", sum (fun st -> st.Scheduler.rollbacks));
         ("tw_committed", sum (fun st -> st.Scheduler.events_committed)) ]
      @ counters [ Kernel.perf k ]
      @ List.map
          (fun (n, v) -> ("tw_" ^ n, v))
          (counters [ Kernel.perf kernel ]))

(* Reverse execution's cycles: a debugger session (attach, seek to the
   middle, step back and forward, seek to the start, seek back to the
   failure) on a working segment that shares its log with a second
   logged segment, under the prototype logger and under the on-chip
   logger recording pre-images. Pins the clock after each move, the
   working image at each stop, and the counters. *)
let reverse_exec_session ~hw ~record_old_values =
  let open Lvm_vm in
  let module Rx = Lvm_tools.Reverse_exec in
  let page = Addr.page_size in
  let k = Kernel.create ~hw ~record_old_values () in
  let sp = Kernel.create_space k in
  let checkpoint = Kernel.create_segment k ~size:page in
  let working = Kernel.create_segment k ~size:page in
  Kernel.declare_source k ~dst:working ~src:checkpoint ~offset:0;
  let region = Kernel.create_region k working in
  let other = Kernel.create_region k (Kernel.create_segment k ~size:page) in
  let ls = Kernel.create_log_segment k ~size:(16 * page) in
  Kernel.set_region_log k region (Some ls);
  Kernel.set_region_log k other (Some ls);
  let base = Kernel.bind k sp region in
  let obase = Kernel.bind k sp other in
  for i = 0 to 119 do
    Kernel.compute k (i mod 5);
    Kernel.write_word k sp (base + (i * 12 mod page)) (i + 1);
    if i mod 3 = 0 then Kernel.write_word k sp (obase + (i * 8 mod page)) i
  done;
  let image () =
    Digest.to_hex
      (Digest.string
         (String.init page (fun off ->
              Char.chr (Kernel.seg_read_raw k working ~off ~size:1))))
  in
  let rx = Rx.create k ~space:sp ~working ~region ~base ~log:ls in
  let n = Rx.length rx in
  let at label = [ (label, string_of_int (Kernel.max_time k)) ] in
  let attach = at "attach" in
  Rx.seek rx (n / 2);
  let half = at "seek_half" @ [ ("image_half", image ()) ] in
  ignore (Rx.step_back rx);
  let back = at "step_back" in
  ignore (Rx.step_forward rx);
  let fwd = at "step_forward" in
  Rx.seek rx 0;
  let start = at "seek_0" @ [ ("image_0", image ()) ] in
  Rx.seek rx n;
  let fin = at "seek_end" @ [ ("image_end", image ()) ] in
  Rx.detach rx;
  [ ("writes", string_of_int n) ] @ attach @ half @ back @ fwd @ start @ fin
  @ List.map
      (fun (name, v) -> (name, string_of_int v))
      (counters [ Kernel.perf k ])

let pinned = Alcotest.(list (pair string int))

(* Every value below was generated before the sparse-memory and
   lean-replay changes and must not move. *)

let test_phold_lvm_4cpu () =
  Alcotest.check pinned "4-CPU Lvm_based PHOLD"
    [ ("elapsed_cycles", 17680132);
      ("events_committed", 3020);
      ("rollbacks", 1076);
      ("l1_hits", 3965695);
      ("l1_misses", 895919);
      ("bus_busy_cycles", 7538872);
      ("log_records", 22744);
      ("dc_pages_scanned", 1076) ]
    (phold ~cpus:4 ~n_schedulers:4 ~strategy:State_saving.Lvm_based
       ~end_time:2000 ())

let test_phold_copy_1cpu () =
  Alcotest.check pinned "1-CPU Copy_based PHOLD"
    [ ("elapsed_cycles", 1683562);
      ("events_committed", 3020);
      ("rollbacks", 497);
      ("l1_hits", 29078);
      ("l1_misses", 16);
      ("bus_busy_cycles", 128);
      ("log_records", 0);
      ("dc_pages_scanned", 0) ]
    (phold ~cpus:1 ~n_schedulers:2 ~strategy:State_saving.Copy_based
       ~end_time:2000 ())

let test_tpca_rlvm () =
  let values, report = tpca () in
  Alcotest.check pinned "TPC-A over RLVM"
    [ ("txn_cycles", 13542387);
      ("elapsed_cycles", 13675368);
      ("recovery.scanned", 48);
      ("recovery.committed", 6);
      ("recovery.replayed", 42);
      ("recovery.truncated_bytes", 0);
      ("l1_hits", 13548);
      ("l1_misses", 1417);
      ("bus_busy_cycles", 52022);
      ("log_records", 2814);
      ("dc_pages_scanned", 1) ]
    values;
  Alcotest.(check string) "recovery report"
    "scanned=48 committed=6 replayed=42 truncated=0 torn=none" report

let test_v1_roll_forward () =
  Alcotest.check pinned "V1 roll_forward"
    [ ("records", 600);
      ("elapsed_cycles", 32846);
      ("kept_records", 300);
      ("l1_hits", 981);
      ("l1_misses", 527);
      ("bus_busy_cycles", 12384);
      ("log_records", 600);
      ("dc_pages_scanned", 2) ]
    (v1_roll_forward ())

(* Generated before the located replay became one allocation-free
   primitive. *)
let test_replay_paths () =
  let pin = Alcotest.(list (pair string string)) in
  Alcotest.check pin "V0"
    [ ("rolled_back", "9636410ef857dcaf06c3928731a6239a");
      ("working", "7a4ba625597c2142a6313fa75e365de5");
      ("checkpoint", "ab7d14ca02c85a78988e066047a4051e");
      ("tw_state", "100f16f55f6bd5d1cd411401a8025003"); ("records", "400");
      ("applied", "250"); ("kept_records", "150"); ("max_time", "41132");
      ("tw_max_time", "767361"); ("tw_rollbacks", "93");
      ("tw_committed", "308"); ("l1_hits", "1403"); ("l1_misses", "855");
      ("bus_busy_cycles", "16208"); ("log_records", "600");
      ("dc_pages_scanned", "2"); ("tw_l1_hits", "58470");
      ("tw_l1_misses", "8553"); ("tw_bus_busy_cycles", "95092");
      ("tw_log_records", "1908"); ("tw_dc_pages_scanned", "93") ]
    (replay_paths ~hw:Logger.Prototype ~record_old_values:false
       ~codec:Log_record.V0);
  Alcotest.check pin "V1"
    [ ("rolled_back", "9636410ef857dcaf06c3928731a6239a");
      ("working", "7a4ba625597c2142a6313fa75e365de5");
      ("checkpoint", "ab7d14ca02c85a78988e066047a4051e");
      ("tw_state", "100f16f55f6bd5d1cd411401a8025003"); ("records", "400");
      ("applied", "250"); ("kept_records", "150"); ("max_time", "41044");
      ("tw_max_time", "768189"); ("tw_rollbacks", "93");
      ("tw_committed", "308"); ("l1_hits", "1405"); ("l1_misses", "857");
      ("bus_busy_cycles", "16224"); ("log_records", "600");
      ("dc_pages_scanned", "2"); ("tw_l1_hits", "58619");
      ("tw_l1_misses", "8616"); ("tw_bus_busy_cycles", "95604");
      ("tw_log_records", "1908"); ("tw_dc_pages_scanned", "93") ]
    (replay_paths ~hw:Logger.Prototype ~record_old_values:false
       ~codec:Log_record.V1);
  Alcotest.check pin "on-chip, pre-images"
    [ ("rolled_back", "4ab93e9dba1be944311406b2c00b7697");
      ("working", "0cac3fcadd315695763a1228c81665ff");
      ("checkpoint", "08fa980dfddbf18911ba377565b33756");
      ("tw_state", "100f16f55f6bd5d1cd411401a8025003"); ("records", "800");
      ("applied", "250"); ("kept_records", "699"); ("max_time", "107647");
      ("tw_max_time", "855320"); ("tw_rollbacks", "93");
      ("tw_committed", "308"); ("l1_hits", "3951"); ("l1_misses", "1907");
      ("bus_busy_cycles", "31328"); ("log_records", "1200");
      ("dc_pages_scanned", "2"); ("tw_l1_hits", "100065");
      ("tw_l1_misses", "15038"); ("tw_bus_busy_cycles", "161628");
      ("tw_log_records", "3816"); ("tw_dc_pages_scanned", "93") ]
    (replay_paths ~hw:Logger.On_chip ~record_old_values:true
       ~codec:Log_record.V0)

(* Generated before the located replay became one primitive: a debugger
   step still charges one record read per write. *)
let test_reverse_exec_session () =
  let pin = Alcotest.(list (pair string string)) in
  Alcotest.check pin "prototype, shared log"
    [ ("writes", "160");
      ("attach", "4074");
      ("seek_half", "13271");
      ("image_half", "27ef32e11d45b6d8f75f2546eb2a3dcd");
      ("step_back", "21734");
      ("step_forward", "21748");
      ("seek_0", "29440");
      ("image_0", "620f0b67a91f7f74151bc5be745b7110");
      ("seek_end", "31730");
      ("image_end", "4ea806862cdb9a77ce0cec53946f7ebf");
      ("l1_hits", "1180");
      ("l1_misses", "340");
      ("bus_busy_cycles", "4800");
      ("log_records", "160");
      ("dc_pages_scanned", "3") ]
    (reverse_exec_session ~hw:Logger.Prototype ~record_old_values:false);
  Alcotest.check pin "on-chip, pre-images, shared log"
    [ ("writes", "160");
      ("attach", "15090");
      ("seek_half", "16595");
      ("image_half", "27ef32e11d45b6d8f75f2546eb2a3dcd");
      ("step_back", "16618");
      ("step_forward", "16632");
      ("seek_0", "18119");
      ("image_0", "620f0b67a91f7f74151bc5be745b7110");
      ("seek_end", "20310");
      ("image_end", "4ea806862cdb9a77ce0cec53946f7ebf");
      ("l1_hits", "1120");
      ("l1_misses", "410");
      ("bus_busy_cycles", "6640");
      ("log_records", "320");
      ("dc_pages_scanned", "0") ]
    (reverse_exec_session ~hw:Logger.On_chip ~record_old_values:true)

(* Generated before RLVM and FAMS shared one redo encoder. *)
let test_wal_digests () =
  let pin = Alcotest.(list (pair string (list string))) in
  Alcotest.check pin "V0 WAL"
    [ ( "rlvm",
        [ "ac1a192680553d27b2fef05206507de9";
          "bd2c62bd12f683c4deca72e21baa95df"; "192718" ] );
      ( "fams",
        [ "7575361db5c7147e3052647493c17e87";
          "2bb414ec65bdd96b24c0ad087da342d6"; "253489" ] ) ]
    (wal_digests ~codec:Log_record.V0 ~coalesce_depth:0);
  Alcotest.check pin "V1 + coalescing WAL"
    [ ( "rlvm",
        [ "ddddc88502931670e5a45eaa516315ba";
          "bd2c62bd12f683c4deca72e21baa95df"; "182289" ] );
      ( "fams",
        [ "5259e2a9e7ac55bab1788ace564586b0";
          "2bb414ec65bdd96b24c0ad087da342d6"; "254156" ] ) ]
    (wal_digests ~codec:Log_record.V1 ~coalesce_depth:16)

(* Generated before a blocked worker spun to its scheduling horizon in
   one visit. *)
let test_store_schedules () =
  List.iter2
    (fun (name, config, spec) expected ->
      Alcotest.check pinned name expected (schedule (config, spec)))
    schedule_specs
    [ [ ("executed", 300); ("reads", 0); ("cross", 61); ("shed", 0);
        ("failed", 0); ("requeued", 0); ("moved", 0); ("dropped", 0);
        ("splits", 0); ("merges", 0); ("wall_cycles", 6947269);
        ("cycles_per_txn_milli", 23157563); ("shard0.txns", 87);
        ("shard0.cycles", 6246441); ("shard1.txns", 96);
        ("shard1.cycles", 6947269); ("shard2.txns", 67);
        ("shard2.cycles", 6695417); ("shard3.txns", 50);
        ("shard3.cycles", 6573138); ("cpu0.clock", 6246441);
        ("cpu1.clock", 6947269); ("cpu2.clock", 6695417);
        ("cpu3.clock", 6573138) ];
      [ ("executed", 300); ("reads", 0); ("cross", 165); ("shed", 0);
        ("failed", 0); ("requeued", 0); ("moved", 0); ("dropped", 0);
        ("splits", 0); ("merges", 0); ("wall_cycles", 9606491);
        ("cycles_per_txn_milli", 32021637); ("shard0.txns", 116);
        ("shard0.cycles", 9606491); ("shard1.txns", 95);
        ("shard1.cycles", 9565101); ("shard2.txns", 56);
        ("shard2.cycles", 9404703); ("shard3.txns", 33);
        ("shard3.cycles", 9484910); ("cpu0.clock", 9606491);
        ("cpu1.clock", 9565101); ("cpu2.clock", 9404703);
        ("cpu3.clock", 9484910) ];
      [ ("executed", 197); ("reads", 0); ("cross", 53); ("shed", 0);
        ("failed", 0); ("requeued", 0); ("moved", 0); ("dropped", 103);
        ("splits", 0); ("merges", 0); ("wall_cycles", 4483979);
        ("cycles_per_txn_milli", 22761315); ("shard0.txns", 51);
        ("shard0.cycles", 4437528); ("shard1.txns", 54);
        ("shard1.cycles", 4480774); ("shard2.txns", 50);
        ("shard2.cycles", 4483979); ("shard3.txns", 42);
        ("shard3.cycles", 4400653); ("cpu0.clock", 4437528);
        ("cpu1.clock", 4480774); ("cpu2.clock", 4483979);
        ("cpu3.clock", 4400653) ];
      [ ("executed", 300); ("reads", 0); ("cross", 270); ("shed", 0);
        ("failed", 0); ("requeued", 0); ("moved", 3); ("dropped", 0);
        ("splits", 4); ("merges", 0); ("wall_cycles", 24296479);
        ("cycles_per_txn_milli", 80988263); ("shard0.txns", 190);
        ("shard0.cycles", 24295016); ("shard1.txns", 80);
        ("shard1.cycles", 24295072); ("shard2.txns", 25);
        ("shard2.cycles", 24215091); ("shard3.txns", 5);
        ("shard3.cycles", 24296479); ("cpu0.clock", 24295016);
        ("cpu1.clock", 24295072); ("cpu2.clock", 24215091);
        ("cpu3.clock", 24296479) ];
      [ ("executed", 37); ("reads", 563); ("cross", 0); ("shed", 0);
        ("failed", 0); ("requeued", 0); ("moved", 0); ("dropped", 0);
        ("splits", 0); ("merges", 0); ("wall_cycles", 120645);
        ("cycles_per_txn_milli", 3260676); ("shard0.txns", 22);
        ("shard0.cycles", 120645); ("shard1.txns", 6);
        ("shard1.cycles", 51918); ("shard2.txns", 4); ("shard2.cycles", 48169);
        ("shard3.txns", 5); ("shard3.cycles", 50078); ("cpu0.clock", 120645);
        ("cpu1.clock", 51918); ("cpu2.clock", 48169); ("cpu3.clock", 50078) ] ];
  Alcotest.(check (list (triple int int int)))
    "cross 50 crash points"
    [ (1, 200, 0); (1065891, 1098612, 1); (2131782, 2167779, 0);
      (3197672, 3202142, 1); (4263563, 4291265, 2); (5329453, 5347403, 0);
      (6395344, 6400160, 0); (7461235, 7461235, 1) ]
    (crash_points ())

(* Generated before a horizon spin kept its CPU's clock locally. *)
let test_spin_crashes () =
  Alcotest.(check (list (pair int (triple int int int))))
    "store-2pc spin crash points"
    [ (0, (-1, -1, 3873996));
      (267853, (296568, 3, 296568));
      (900001, (919994, 0, 919994)) ]
    (spin_crashes ())

let suites =
  [ ( "golden",
      [ Alcotest.test_case "phold lvm 4-cpu cycles" `Quick test_phold_lvm_4cpu;
        Alcotest.test_case "phold copy 1-cpu cycles" `Quick
          test_phold_copy_1cpu;
        Alcotest.test_case "tpca rlvm cycles + recovery" `Quick test_tpca_rlvm;
        Alcotest.test_case "v1 roll_forward cycles" `Quick
          test_v1_roll_forward;
        Alcotest.test_case "rlvm + fams wal bytes" `Quick test_wal_digests;
        Alcotest.test_case "located replay paths" `Quick test_replay_paths;
        Alcotest.test_case "reverse-exec session cycles" `Quick
          test_reverse_exec_session;
        Alcotest.test_case "store workload schedules" `Quick
          test_store_schedules;
        Alcotest.test_case "store horizon spin crashes" `Quick
          test_spin_crashes ]
    ) ]
