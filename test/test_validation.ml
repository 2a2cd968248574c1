(* Argument-validation coverage: every public constructor and operation
   rejects malformed input with a meaningful error rather than corrupting
   state. *)

open Lvm_machine
open Lvm_vm

let inv msg f = Alcotest.check_raises msg (Invalid_argument msg) f

let boot () =
  let k = Kernel.create () in
  (k, Kernel.create_space k)

let test_machine_validation () =
  let m = Machine.create ~frames:2 () in
  inv "Machine.compute: negative cycles" (fun () -> Machine.compute m (-1));
  inv "Physmem.create: frames must be positive" (fun () ->
      ignore (Physmem.create ~frames:0));
  inv "Fifo.create: capacity must be positive" (fun () ->
      ignore (Fifo.create ~capacity:0));
  inv "Bus.access: negative cycles" (fun () ->
      ignore (Bus.access (Machine.bus m) ~track:Bus.Cpu ~now:0 ~cycles:(-1)));
  inv "Deferred_cache.map: source address must be line-aligned" (fun () ->
      Machine.dc_map m ~dst_page:1 ~src_addr:5);
  inv "Physmem.read_sized: size must be 1, 2 or 4" (fun () ->
      ignore (Physmem.read_sized (Machine.mem m) 0 ~size:3))

let test_logger_validation () =
  let clock = ref 0 in
  let perf = Perf.create () in
  let mem = Physmem.create ~frames:2 in
  let bus = Bus.create perf in
  inv "Logger.create: pmt_bits" (fun () ->
      ignore (Logger.create ~pmt_bits:1 ~clock mem bus perf));
  inv "Logger.create: log_entries" (fun () ->
      ignore (Logger.create ~log_entries:0 ~clock mem bus perf));
  let logger = Logger.create ~log_entries:2 ~clock mem bus perf in
  inv "Logger.load_pmt: bad log index" (fun () ->
      Logger.load_pmt logger ~page:0 ~log_index:2);
  inv "Logger.set_log_entry: bad index" (fun () ->
      Logger.set_log_entry logger ~index:(-1) ~mode:Logger.Normal ~addr:0);
  inv "Logger.log_entry: bad index" (fun () ->
      ignore (Logger.log_entry logger ~index:9))

let test_segment_region_validation () =
  let k, _sp = boot () in
  let err name e f = Alcotest.check_raises name (Error.Lvm_error e) f in
  err "Segment.make: negative size"
    (Error.Invalid { op = "Segment.make"; reason = "negative size" })
    (fun () -> ignore (Segment.make ~id:0 ~kind:Segment.Std ~size:(-4)));
  let seg = Kernel.create_segment k ~size:4096 in
  err "Segment.grow: negative page count"
    (Error.Out_of_range
       { op = "Segment.grow"; what = "page count"; value = -1 })
    (fun () -> Segment.grow seg ~pages:(-1));
  err "Region.make: size must be positive"
    (Error.Out_of_range { op = "Region.make"; what = "size"; value = 0 })
    (fun () -> ignore (Region.make ~id:1 ~segment:seg ~seg_offset:0 ~size:0));
  err "page range"
    (Error.Page_out_of_range { segment = 2; page = 7; pages = 1 })
    (fun () -> ignore (Segment.frame_of_page seg 7))

let test_kernel_validation () =
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:4096 in
  let ls = Kernel.create_log_segment k ~size:4096 in
  let err name e f = Alcotest.check_raises name (Error.Lvm_error e) f in
  err "Lvm_log.of_segment on std segment"
    (Error.Not_a_log_segment
       { op = "Lvm_log.of_segment"; segment = Segment.id seg })
    (fun () -> ignore (Lvm_log.of_segment k seg));
  err "truncate keep_from"
    (Error.Out_of_range { op = "truncate_log"; what = "keep_from"; value = 99 })
    (fun () -> Lvm_log.truncate (Lvm_log.of_segment k ls) ~keep_from:99);
  err "truncate_suffix new_end"
    (Error.Out_of_range
       { op = "truncate_log_suffix"; what = "new_end"; value = 99 })
    (fun () ->
      Lvm_log.truncate_suffix (Lvm_log.of_segment k ls) ~new_end:99);
  err "Batcher group out of range"
    (Error.Out_of_range
       { op = "Lvm_log.Batcher.create"; what = "group"; value = 0 })
    (fun () ->
      ignore (Lvm_log.Batcher.create ~group:0 ~force:(fun () -> ()) ()));
  err "declare_source unaligned offset"
    (Error.Invalid
       { op = "declare_source"; reason = "offset must be page-aligned" })
    (fun () -> Kernel.declare_source k ~dst:seg ~src:seg ~offset:100);
  err "paddr_of out of segment"
    (Error.Out_of_segment { segment = Segment.id seg; off = 9999 })
    (fun () -> ignore (Kernel.paddr_of k seg ~off:9999));
  err "reset_deferred_copy negative length"
    (Error.Out_of_range
       { op = "reset_deferred_copy"; what = "len"; value = -1 })
    (fun () -> Kernel.reset_deferred_copy k sp ~start:0 ~len:(-1));
  err "bad access size"
    (Error.Bad_access_size { size = 8 })
    (fun () -> ignore (Kernel.read k sp ~vaddr:0 ~size:8));
  let store = Backing_store.create ~size:4096 in
  err "backing store too small"
    (Error.Invalid
       { op = "create_segment";
         reason = "backing store smaller than segment" })
    (fun () -> ignore (Kernel.create_segment ~backing:store k ~size:8192));
  err "sync_segment without backing"
    (Error.No_backing_store { op = "sync_segment"; segment = Segment.id seg })
    (fun () -> Kernel.sync_segment k seg)

let test_lvm_layer_validation () =
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:4096 in
  inv "Arena.alloc: words must be positive" (fun () ->
      ignore (Lvm.Arena.alloc (Lvm.Arena.create k sp) ~logged:true ~words:0));
  ignore seg

let test_sim_validation () =
  let open Lvm_sim in
  inv "Timewarp.create: batch must be positive" (fun () ->
      ignore
        (Timewarp.create ~batch:0 ~n_schedulers:1
           ~strategy:State_saving.Copy_based
           ~app:(Phold.app ~objects:2 ~seed:1 ())
           ()));
  inv "Phold.app: objects must be positive" (fun () ->
      ignore (Phold.app ~objects:0 ~seed:1 ()));
  inv "Phold.app: need at least 4 words" (fun () ->
      ignore (Phold.app ~objects:2 ~object_words:2 ~seed:1 ()));
  inv "Phold.app: locality_pct must be a percentage" (fun () ->
      ignore (Phold.app ~objects:2 ~locality_pct:150 ~seed:1 ()));
  inv "Queueing.app: stations" (fun () ->
      ignore (Queueing.app ~stations:0 ~seed:1));
  inv "Synthetic: bad parameters" (fun () ->
      ignore
        (Synthetic.run
           { Synthetic.default_params with Synthetic.events = 0 }
           State_saving.Copy_based));
  inv "Synthetic: object size must be a word multiple" (fun () ->
      ignore
        (Synthetic.run
           { Synthetic.default_params with Synthetic.s = 30 }
           State_saving.Copy_based))

let test_rvm_validation () =
  let k, sp = boot () in
  let err name e f = Alcotest.check_raises name (Error.Lvm_error e) f in
  let r = Lvm_rvm.Rvm.make Lvm_rvm.Rvm.Config.default k sp ~size:4096 in
  Lvm_rvm.Rvm.begin_txn r;
  err "Rvm.set_range: out of segment"
    (Error.Out_of_segment { segment = 2; off = 4000 })
    (fun () -> Lvm_rvm.Rvm.set_range r ~off:4000 ~len:200);
  err "Rlvm.create: size must be a positive word multiple"
    (Error.Invalid
       { op = "Rlvm.create"; reason = "size must be a positive word multiple" })
    (fun () -> ignore (Lvm_rvm.Rlvm.make Lvm_rvm.Rlvm.Config.default k sp ~size:30));
  err "Ramdisk.create: size must be positive"
    (Error.Invalid { op = "Ramdisk.create"; reason = "size must be positive" })
    (fun () -> ignore (Lvm_rvm.Ramdisk.create k ~size:0));
  (* Satellite: the log provision is validated at creation. One worst-case
     transaction over a 64 KB segment needs more than one page of log. *)
  err "Rlvm.create: log capacity"
    (Error.Log_capacity
       { op = "Rlvm.create";
         requested = (65536 / 4 * 16) + 32;
         capacity = 4096 })
    (fun () -> ignore (Lvm_rvm.Rlvm.make { Lvm_rvm.Rlvm.Config.default with log_pages = 1 } k sp ~size:65536))

let test_consistency_validation () =
  let k, sp = boot () in
  inv "Shared_segment.create: bad size" (fun () ->
      ignore
        (Lvm_consistency.Shared_segment.create k sp ~size:30
           Lvm_consistency.Shared_segment.Log_based));
  let t =
    Lvm_consistency.Shared_segment.create k sp ~size:4096
      Lvm_consistency.Shared_segment.Log_based
  in
  inv "Shared_segment.write_word" (fun () ->
      Lvm_consistency.Shared_segment.write_word t ~off:4096 1)

(* Satellite: [Store.create] validates the whole config record with
   typed errors — not just shards/keys but the per-shard log provision
   and machine sizing too. *)
let test_store_validation () =
  let module Store = Lvm_store.Store in
  let err name e f = Alcotest.check_raises name (Error.Lvm_error e) f in
  let mk cfg = ignore (Store.create cfg) in
  let range what value =
    Error.Out_of_range { op = "Store.create"; what; value }
  in
  err "Store.create: group" (range "group" 0) (fun () ->
      mk { Store.Config.default with group = 0 });
  err "Store.create: log_pages" (range "log_pages" 0) (fun () ->
      mk { Store.Config.default with log_pages = 0 });
  err "Store.create: max_log_pages below log_pages" (range "max_log_pages" 2)
    (fun () ->
      mk { Store.Config.default with log_pages = 4; max_log_pages = Some 2 });
  err "Store.create: frames" (range "frames" (-1)) (fun () ->
      mk { Store.Config.default with frames = -1 });
  (* the ceiling equal to the provision is legal: backpressure just
     never extends *)
  ignore
    (Store.create
       { Store.Config.default with
         shards = 1; keys = 8; log_pages = 32; max_log_pages = Some 32 })

(* [Workload.run] rejects a malformed spec with a typed error before
   running anything, one case per checked field. *)
let workload_spec_cases =
  let module W = Lvm_store.Workload in
  let range what value =
    Error.Out_of_range { op = "Workload.run"; what; value }
  in
  let case name e spec =
    Alcotest.test_case ("workload spec: " ^ name) `Quick (fun () ->
        let st =
          Lvm_store.Store.create
            { Lvm_store.Store.Config.default with shards = 2; keys = 32 }
        in
        Alcotest.check_raises name (Error.Lvm_error e) (fun () ->
            ignore (W.run st spec)))
  in
  [ case "txns" (range "txns" 0) { W.default with txns = 0 };
    case "cross_pct" (range "cross_pct" 101)
      { W.default with cross_pct = 101 };
    case "writes_per_txn" (range "writes_per_txn" 0)
      { W.default with writes_per_txn = 0 };
    case "retries" (range "retries" (-1)) { W.default with retries = -1 };
    case "read_pct" (range "read_pct" (-5)) { W.default with read_pct = -5 };
    case "readers" (range "readers" 0) { W.default with readers = 0 };
    case "queue_cap" (range "queue_cap" 0)
      { W.default with
        queue_cap = Some 0;
        arrival =
          W.Open
            { mean_gap = 6000; burst_every = 64; burst_len = 16;
              burst_gap = 750 } };
    case "queue_cap without Open"
      (Error.Invalid
         { op = "Workload.run"; reason = "queue_cap needs Open arrivals" })
      { W.default with queue_cap = Some 4 } ]

let test_tools_validation () =
  let k, sp = boot () in
  let out = Lvm_tools.Output_stream.create_indexed k sp ~size:4096
      ~log_pages:2 in
  inv "Output_stream.mirror_word: direct-mapped mode only" (fun () ->
      ignore (Lvm_tools.Output_stream.mirror_word out ~off:0));
  let direct = Lvm_tools.Output_stream.create_direct k sp ~size:4096 in
  inv "Output_stream.consume: indexed mode only" (fun () ->
      ignore (Lvm_tools.Output_stream.consume direct));
  inv "Output_stream.emit_at" (fun () ->
      Lvm_tools.Output_stream.emit_at out ~off:(-4) 1)

let suites =
  [
    ( "validation",
      [
        Alcotest.test_case "machine layer" `Quick test_machine_validation;
        Alcotest.test_case "logger" `Quick test_logger_validation;
        Alcotest.test_case "segments and regions" `Quick
          test_segment_region_validation;
        Alcotest.test_case "kernel" `Quick test_kernel_validation;
        Alcotest.test_case "lvm layer" `Quick test_lvm_layer_validation;
        Alcotest.test_case "simulation" `Quick test_sim_validation;
        Alcotest.test_case "recoverable memory" `Quick test_rvm_validation;
        Alcotest.test_case "consistency" `Quick test_consistency_validation;
        Alcotest.test_case "sharded store config" `Quick
          test_store_validation;
        Alcotest.test_case "tools" `Quick test_tools_validation;
      ]
      @ workload_spec_cases );
  ]
