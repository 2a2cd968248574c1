(* Edge-case and robustness tests across layers: sub-word logged writes,
   multi-log interleaving, on-chip stalls, explicit bindings, region
   windows into segments, log slot exhaustion, anti-message ordering,
   timed log reads, and RVM/RLVM coexistence. *)

open Lvm_machine
open Lvm_vm

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let boot ?hw ?log_entries () =
  let k = Kernel.create ?hw ?log_entries () in
  let sp = Kernel.create_space k in
  (k, sp)

let logged ?(pages = 8) ?(size = 8192) k =
  let seg = Kernel.create_segment k ~size in
  let region = Kernel.create_region k seg in
  let ls = Kernel.create_log_segment k ~size:(pages * Addr.page_size) in
  Kernel.set_region_log k region (Some ls);
  (seg, region, ls)

(* {1 Sub-word logged writes} *)

let test_subword_logged_writes () =
  let k, sp = boot () in
  let _, region, ls = logged k in
  let base = Kernel.bind k sp region in
  Kernel.write k sp ~vaddr:(base + 0x11) ~size:1 0xAB;
  Kernel.write k sp ~vaddr:(base + 0x22) ~size:2 0xBEEF;
  Kernel.write k sp ~vaddr:(base + 0x30) ~size:4 0xDEADBEEF;
  let records = Lvm.Log_reader.to_list k ls in
  Alcotest.(check (list int)) "sizes recorded" [ 1; 2; 4 ]
    (List.map (fun r -> r.Log_record.size) records);
  Alcotest.(check (list int)) "values recorded" [ 0xAB; 0xBEEF; 0xDEADBEEF ]
    (List.map (fun r -> r.Log_record.value) records);
  check "byte read back" 0xAB (Kernel.read k sp ~vaddr:(base + 0x11) ~size:1);
  check "half read back" 0xBEEF
    (Kernel.read k sp ~vaddr:(base + 0x22) ~size:2)

let test_byte_write_within_word () =
  (* a logged byte write must not clobber its word's other bytes *)
  let k, sp = boot () in
  let _, region, _ = logged k in
  let base = Kernel.bind k sp region in
  Kernel.write_word k sp base 0x11223344;
  Kernel.write k sp ~vaddr:(base + 1) ~size:1 0xFF;
  check "merged word" 0x1122FF44 (Kernel.read_word k sp base)

(* {1 Multiple logs interleaved} *)

let test_two_logs_interleaved () =
  let k, sp = boot () in
  let _, r1, ls1 = logged k in
  let _, r2, ls2 = logged k in
  let b1 = Kernel.bind k sp r1 in
  let b2 = Kernel.bind k sp r2 in
  for i = 0 to 19 do
    if i mod 2 = 0 then Kernel.write_word k sp (b1 + (i * 4)) i
    else Kernel.write_word k sp (b2 + (i * 4)) i
  done;
  Alcotest.(check (list int)) "log 1 has the evens" [ 0; 2; 4; 6; 8; 10; 12;
                                                      14; 16; 18 ]
    (List.map (fun r -> r.Log_record.value) (Lvm.Log_reader.to_list k ls1));
  Alcotest.(check (list int)) "log 2 has the odds" [ 1; 3; 5; 7; 9; 11; 13;
                                                     15; 17; 19 ]
    (List.map (fun r -> r.Log_record.value) (Lvm.Log_reader.to_list k ls2))

let test_direct_slot_eviction_refaults () =
  (* direct-mapped logs with more pages than log-table slots must keep
     working through PMT-miss reactivation *)
  let k, sp = boot ~log_entries:2 () in
  let size = 4 * Addr.page_size in
  let seg = Kernel.create_segment k ~size in
  let region = Kernel.create_region k seg in
  let ls = Kernel.create_log_segment ~mode:Logger.Direct_mapped k ~size in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  for p = 0 to 3 do
    Kernel.write_word k sp (base + (p * Addr.page_size) + 0x10) (p + 1)
  done;
  (* revisit the first page after its slot was evicted *)
  Kernel.write_word k sp (base + 0x20) 99;
  for p = 0 to 3 do
    check
      (Printf.sprintf "mirror page %d" p)
      (p + 1)
      (Kernel.seg_read_raw k ls ~off:((p * Addr.page_size) + 0x10) ~size:4)
  done;
  check "revisited page mirrored" 99 (Kernel.seg_read_raw k ls ~off:0x20
                                        ~size:4)

(* {1 On-chip stall behaviour} *)

let test_onchip_stall_bounds_occupancy () =
  let k, sp = boot ~hw:Logger.On_chip () in
  let _, region, _ = logged ~pages:64 k in
  let base = Kernel.bind k sp region in
  let logger = Machine.logger (Kernel.machine k) in
  for i = 0 to 499 do
    Kernel.write_word k sp (base + (i * 4 mod 4096)) i;
    check_bool "occupancy bounded by the write buffer" true
      (Logger.occupancy logger <= 8)
  done;
  check "no overload interrupts" 0 (Kernel.perf k).Perf.overloads

(* {1 Regions and bindings} *)

let test_region_window_into_segment () =
  (* a region exposing only the middle page of a 3-page segment *)
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:(3 * Addr.page_size) in
  let region = Kernel.create_region ~seg_offset:Addr.page_size
      ~size:Addr.page_size k seg
  in
  let base = Kernel.bind k sp region in
  Kernel.write_word k sp (base + 8) 77;
  check "lands in segment page 1" 77
    (Kernel.seg_read_raw k seg ~off:(Addr.page_size + 8) ~size:4);
  check_bool "cannot reach page 2" true
    (try
       ignore (Kernel.read_word k sp (base + Addr.page_size));
       false
     with Error.Lvm_error (Error.Segmentation_fault _) -> true)

let test_logged_window_only_logs_window () =
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:(2 * Addr.page_size) in
  let window = Kernel.create_region ~seg_offset:Addr.page_size
      ~size:Addr.page_size k seg
  in
  let whole = Kernel.create_region k seg in
  let ls = Kernel.create_log_segment k ~size:(4 * Addr.page_size) in
  Kernel.set_region_log k window (Some ls);
  let wb = Kernel.bind k sp window in
  let ab = Kernel.bind k sp whole in
  Kernel.write_word k sp (wb + 4) 1 (* via the logged window *);
  Kernel.write_word k sp (ab + 4) 2 (* page 0 via the unlogged region *);
  check "only the window write logged" 1 (Lvm.Log_reader.record_count k ls)

let test_explicit_bind_address () =
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:4096 in
  let region = Kernel.create_region k seg in
  let base = Kernel.bind k sp ~vaddr:0x4000_0000 region in
  check "bound where asked" 0x4000_0000 base;
  Kernel.write_word k sp 0x4000_0010 5;
  check "works at explicit address" 5 (Kernel.read_word k sp 0x4000_0010)

let test_rebind_after_unbind_keeps_data () =
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:4096 in
  let region = Kernel.create_region k seg in
  let b1 = Kernel.bind k sp region in
  Kernel.write_word k sp (b1 + 4) 123;
  Kernel.unbind k sp region;
  let b2 = Kernel.bind k sp ~vaddr:0x5000_0000 region in
  check "data survives rebinding" 123 (Kernel.read_word k sp (b2 + 4))

(* {1 Timed log reads} *)

let test_timed_log_read_charges () =
  let k, sp = boot () in
  let _, region, ls = logged k in
  let base = Kernel.bind k sp region in
  Kernel.write_word k sp base 1;
  Kernel.compute k 500;
  let t0 = Kernel.time k in
  Lvm.Log_reader.charge_read k ls ~off:0 ~len:Lvm_machine.Log_record.bytes;
  let timed = Kernel.time k - t0 in
  let t1 = Kernel.time k in
  ignore (Lvm.Log_reader.read_at k ls ~off:0);
  let untimed = Kernel.time k - t1 in
  check "untimed read is free" 0 untimed;
  check_bool "timed read charges the cache model" true (timed > 0)

(* {1 Anti-message before positive (out-of-order delivery)} *)

let test_anti_before_positive_annihilates () =
  let open Lvm_sim in
  let app =
    {
      Scheduler.n_objects = 2;
      object_words = 4;
      init_word = (fun ~obj:_ ~word:_ -> 0);
      handle = (fun ctx ~payload -> ctx.Scheduler.write 1 payload);
    }
  in
  let uid = ref 100 in
  let s =
    Scheduler.create ~id:0 ~n_schedulers:1
      ~strategy:State_saving.Lvm_based ~app
      ~fresh_uid:(fun () -> incr uid; !uid)
      ()
  in
  let ev = { Event.time = 10; dst = 0; payload = 5; src = 1; send_time = 1;
             uid = 1 } in
  (* the negative copy arrives first *)
  Scheduler.receive s (Event.anti ev);
  check_bool "queue still empty" true (Scheduler.queue_empty s);
  (* then the positive: they must annihilate *)
  Scheduler.receive s (Event.positive ev);
  check_bool "annihilated on arrival" true (Scheduler.queue_empty s);
  check "annihilation counted" 1 (Scheduler.stats s).Scheduler.annihilations

let test_anti_for_queued_event () =
  let open Lvm_sim in
  let app =
    {
      Scheduler.n_objects = 1;
      object_words = 4;
      init_word = (fun ~obj:_ ~word:_ -> 0);
      handle = (fun _ ~payload:_ -> ());
    }
  in
  let s =
    Scheduler.create ~id:0 ~n_schedulers:1
      ~strategy:State_saving.Copy_based ~app
      ~fresh_uid:(fun () -> 0)
      ()
  in
  let ev = { Event.time = 5; dst = 0; payload = 1; src = 0; send_time = 1;
             uid = 42 } in
  Scheduler.receive s (Event.positive ev);
  check_bool "queued" true (not (Scheduler.queue_empty s));
  Scheduler.receive s (Event.anti ev);
  check_bool "annihilated from queue" true (Scheduler.queue_empty s)

(* {1 RVM and RLVM coexistence} *)

let test_rvm_rlvm_share_kernel () =
  let k, sp = boot () in
  let rvm = Lvm_rvm.Rvm.make Lvm_rvm.Rvm.Config.default k sp ~size:4096 in
  let rlvm = Lvm_rvm.Rlvm.make Lvm_rvm.Rlvm.Config.default k sp ~size:4096 in
  Lvm_rvm.Rvm.begin_txn rvm;
  Lvm_rvm.Rlvm.begin_txn rlvm;
  Lvm_rvm.Rvm.set_range rvm ~off:0 ~len:4;
  Lvm_rvm.Rvm.write_word rvm ~off:0 1;
  Lvm_rvm.Rlvm.write_word rlvm ~off:0 2;
  Lvm_rvm.Rvm.commit rvm;
  Lvm_rvm.Rlvm.commit rlvm;
  Lvm_rvm.Rvm.crash_and_recover rvm;
  Lvm_rvm.Rlvm.crash_and_recover rlvm;
  check "rvm state independent" 1 (Lvm_rvm.Rvm.read_word rvm ~off:0);
  check "rlvm state independent" 2 (Lvm_rvm.Rlvm.read_word rlvm ~off:0)

(* {1 Log segment growth} *)

let test_log_grows_across_many_pages () =
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:(64 * 1024) in
  let region = Kernel.create_region k seg in
  let ls = Kernel.create_log_segment k ~size:(2 * Addr.page_size) in
  let log = Lvm_log.of_segment k ls in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  let n = 2000 in
  for i = 0 to n - 1 do
    (* extend ahead of the logger, as the paper prescribes *)
    if Lvm_log.room log < Addr.page_size then Lvm_log.extend log ~pages:4;
    Kernel.write_word k sp (base + (i * 4 mod 32768)) i
  done;
  check "every record retained" n (Lvm.Log_reader.record_count k ls);
  let r = Lvm.Log_reader.read_at k ls ~off:((n - 1) * Log_record.bytes) in
  check "last record" (n - 1) r.Log_record.value;
  check "no records lost" 0 (Kernel.perf k).Perf.log_records_lost

(* {1 Perf counter coherence} *)

let test_perf_records_match_reader () =
  let k, sp = boot () in
  let _, region, ls = logged ~pages:16 k in
  let base = Kernel.bind k sp region in
  for i = 0 to 299 do
    Kernel.write_word k sp (base + (i * 4 mod 8192)) i
  done;
  Kernel.sync_log k ls;
  check "perf count equals parsed count" (Kernel.perf k).Perf.log_records
    (Lvm.Log_reader.record_count k ls)

let suites =
  [
    ( "edge.subword",
      [
        Alcotest.test_case "sizes logged" `Quick test_subword_logged_writes;
        Alcotest.test_case "byte within word" `Quick
          test_byte_write_within_word;
      ] );
    ( "edge.multi-log",
      [
        Alcotest.test_case "two logs interleaved" `Quick
          test_two_logs_interleaved;
        Alcotest.test_case "direct slot eviction" `Quick
          test_direct_slot_eviction_refaults;
      ] );
    ( "edge.on-chip",
      [
        Alcotest.test_case "stall bounds occupancy" `Quick
          test_onchip_stall_bounds_occupancy;
      ] );
    ( "edge.regions",
      [
        Alcotest.test_case "window into segment" `Quick
          test_region_window_into_segment;
        Alcotest.test_case "logged window" `Quick
          test_logged_window_only_logs_window;
        Alcotest.test_case "explicit bind address" `Quick
          test_explicit_bind_address;
        Alcotest.test_case "rebind keeps data" `Quick
          test_rebind_after_unbind_keeps_data;
      ] );
    ( "edge.log-reader",
      [ Alcotest.test_case "timed read charges" `Quick
          test_timed_log_read_charges ] );
    ( "edge.timewarp",
      [
        Alcotest.test_case "anti before positive" `Quick
          test_anti_before_positive_annihilates;
        Alcotest.test_case "anti for queued event" `Quick
          test_anti_for_queued_event;
      ] );
    ( "edge.rvm",
      [ Alcotest.test_case "rvm+rlvm share kernel" `Quick
          test_rvm_rlvm_share_kernel ] );
    ( "edge.log-growth",
      [
        Alcotest.test_case "grows across pages" `Quick
          test_log_grows_across_many_pages;
        Alcotest.test_case "perf matches reader" `Quick
          test_perf_records_match_reader;
      ] );
  ]

(* {1 Per-process logs of a shared segment (Sections 2.1, 3.1.2)} *)

let test_per_process_logs_shared_segment () =
  (* two processes map one database segment, each logging to its own log;
     context switches unload the logger tables between them *)
  let k = Kernel.create () in
  let db = Kernel.create_segment k ~size:8192 in
  let mk_process () =
    let space = Kernel.create_space k in
    let region = Kernel.create_region k db in
    let ls = Kernel.create_log_segment k ~size:(4 * Addr.page_size) in
    Kernel.set_region_log k region (Some ls);
    let base = Kernel.bind k space region in
    (space, base, ls)
  in
  let sp_a, base_a, ls_a = mk_process () in
  let sp_b, base_b, ls_b = mk_process () in
  (* interleave the two processes over several switches *)
  Kernel.context_switch k sp_a;
  Kernel.write_word k sp_a (base_a + 0) 100;
  Kernel.write_word k sp_a (base_a + 4) 101;
  Kernel.context_switch k sp_b;
  Kernel.write_word k sp_b (base_b + 8) 200;
  Kernel.context_switch k sp_a;
  Kernel.write_word k sp_a (base_a + 12) 102;
  Kernel.context_switch k sp_b;
  Kernel.write_word k sp_b (base_b + 16) 201;
  Alcotest.(check (list int)) "process A's log has only A's writes"
    [ 100; 101; 102 ]
    (List.map (fun r -> r.Log_record.value) (Lvm.Log_reader.to_list k ls_a));
  Alcotest.(check (list int)) "process B's log has only B's writes"
    [ 200; 201 ]
    (List.map (fun r -> r.Log_record.value) (Lvm.Log_reader.to_list k ls_b));
  (* both processes see the same shared data *)
  check "shared data visible to A" 201 (Kernel.read_word k sp_a (base_a + 16));
  check "shared data visible to B" 100 (Kernel.read_word k sp_b (base_b + 0))

let test_per_process_logs_on_chip () =
  (* the on-chip design flushes its TLB-resident log state on switch *)
  let k = Kernel.create ~hw:Logger.On_chip () in
  let db = Kernel.create_segment k ~size:4096 in
  let mk_process () =
    let space = Kernel.create_space k in
    let region = Kernel.create_region k db in
    let ls = Kernel.create_log_segment k ~size:(4 * Addr.page_size) in
    Kernel.set_region_log k region (Some ls);
    let base = Kernel.bind k space region in
    (space, base, ls)
  in
  let sp_a, base_a, ls_a = mk_process () in
  let sp_b, base_b, ls_b = mk_process () in
  Kernel.context_switch k sp_a;
  Kernel.write_word k sp_a base_a 1;
  Kernel.context_switch k sp_b;
  Kernel.write_word k sp_b base_b 2;
  Kernel.context_switch k sp_a;
  Kernel.write_word k sp_a (base_a + 4) 3;
  Alcotest.(check (list int)) "A's log" [ 1; 3 ]
    (List.map (fun r -> r.Log_record.value) (Lvm.Log_reader.to_list k ls_a));
  Alcotest.(check (list int)) "B's log" [ 2 ]
    (List.map (fun r -> r.Log_record.value) (Lvm.Log_reader.to_list k ls_b))

let test_context_switch_charged () =
  let k = Kernel.create () in
  let sp = Kernel.create_space k in
  let t0 = Kernel.time k in
  Kernel.context_switch k sp;
  check "switch cost" Cycles.context_switch (Kernel.time k - t0)

let process_suite =
  ( "edge.per-process-logs",
    [
      Alcotest.test_case "shared segment, two processes" `Quick
        test_per_process_logs_shared_segment;
      Alcotest.test_case "on-chip TLB flush" `Quick
        test_per_process_logs_on_chip;
      Alcotest.test_case "switch cost charged" `Quick
        test_context_switch_charged;
    ] )

let suites = suites @ [ process_suite ]

(* {1 On-chip hardware end-to-end} *)

let test_timewarp_on_chip_matches_prototype () =
  let open Lvm_sim in
  let run hw =
    let app = Phold.app ~objects:10 ~seed:19 () in
    let engine =
      Timewarp.create ~hw ~n_schedulers:3 ~strategy:State_saving.Lvm_based
        ~app ()
    in
    Phold.inject_population engine ~objects:10 ~population:6 ~seed:19;
    ignore (Timewarp.run engine ~end_time:200);
    Timewarp.state_vector engine
  in
  Alcotest.(check (array int)) "on-chip hw commits the same execution"
    (run Logger.Prototype) (run Logger.On_chip)

let test_rlvm_on_chip_kernel () =
  let k = Kernel.create ~hw:Logger.On_chip () in
  let sp = Kernel.create_space k in
  let r = Lvm_rvm.Rlvm.make Lvm_rvm.Rlvm.Config.default k sp ~size:4096 in
  Lvm_rvm.Rlvm.begin_txn r;
  Lvm_rvm.Rlvm.write_word r ~off:0 77;
  Lvm_rvm.Rlvm.commit r;
  Lvm_rvm.Rlvm.crash_and_recover r;
  check "recoverable memory over on-chip logging" 77
    (Lvm_rvm.Rlvm.read_word r ~off:0)

let onchip_e2e_suite =
  ( "edge.on-chip-e2e",
    [
      Alcotest.test_case "timewarp matches prototype" `Quick
        test_timewarp_on_chip_matches_prototype;
      Alcotest.test_case "rlvm on on-chip kernel" `Quick
        test_rlvm_on_chip_kernel;
    ] )

let suites = suites @ [ onchip_e2e_suite ]

(* {1 Kernel address translation helpers} *)

let test_find_mapping () =
  let k = Kernel.create () in
  let sp1 = Kernel.create_space k in
  let sp2 = Kernel.create_space k in
  let seg = Kernel.create_segment k ~size:8192 in
  let r1 = Kernel.create_region ~seg_offset:4096 ~size:4096 k seg in
  let b1 = Kernel.bind k sp1 r1 in
  (match Kernel.find_mapping k ~vaddr:(b1 + 8) with
  | Some (owner, off) ->
    check "segment found" (Segment.id seg) (Segment.id owner);
    check "offset includes region window" (4096 + 8) off
  | None -> Alcotest.fail "mapping not found");
  check_bool "unmapped address" true
    (Kernel.find_mapping k ~vaddr:0xDEAD000 = None);
  ignore sp2

(* {1 Scheduler CULT threshold} *)

let test_scheduler_defers_cult () =
  let open Lvm_sim in
  let app =
    {
      Scheduler.n_objects = 1;
      object_words = 4;
      init_word = (fun ~obj:_ ~word:_ -> 0);
      handle = (fun ctx ~payload -> ctx.Scheduler.write 1 payload);
    }
  in
  let uid = ref 0 in
  let s =
    Scheduler.create ~id:0 ~n_schedulers:1 ~strategy:State_saving.Lvm_based
      ~app ~fresh_uid:(fun () -> incr uid; !uid) ()
  in
  (* a few events, then fossil-collect: CULT is deferred (log below the
     threshold), so the log is NOT truncated yet *)
  for i = 1 to 5 do
    Scheduler.enqueue s
      { Event.time = i; dst = 0; payload = i; src = -1; send_time = 0;
        uid = 1000 + i }
  done;
  while Scheduler.step s ~horizon:10 do () done;
  check "five processed" 5 (Scheduler.stats s).Scheduler.events_processed;
  Scheduler.fossil_collect s ~gvt:6;
  check "entries committed" 5 (Scheduler.stats s).Scheduler.events_committed;
  check "state survives deferred CULT" 5 (Scheduler.read_state s ~obj:0 ~word:1)

(* {1 Conservative engine validation} *)

let test_conservative_inject_validation () =
  let open Lvm_sim in
  let app = Phold.app ~objects:3 ~seed:1 () in
  let e = Conservative.create ~n_schedulers:1 ~app () in
  Alcotest.check_raises "unknown object"
    (Invalid_argument "Conservative.inject: unknown object") (fun () ->
      Conservative.inject e ~time:1 ~dst:5 ~payload:0)

(* {1 Event queue ordering property} *)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event queue yields sorted order" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 0 40)
        (pair (int_bound 50) (int_bound 1000)))
    (fun entries ->
      let open Lvm_sim in
      let q =
        List.fold_left
          (fun q (time, uid) ->
            Event_queue.add q
              { Event.time; dst = 0; payload = 0; src = 0; send_time = 0;
                uid })
          Event_queue.empty entries
      in
      let out = Event_queue.to_list q in
      let sorted = List.sort Event.compare out in
      out = sorted)

let misc_suite =
  ( "edge.misc",
    [
      Alcotest.test_case "find_mapping" `Quick test_find_mapping;
      Alcotest.test_case "scheduler defers CULT" `Quick
        test_scheduler_defers_cult;
      Alcotest.test_case "conservative inject validation" `Quick
        test_conservative_inject_validation;
      QCheck_alcotest.to_alcotest prop_queue_sorted;
    ] )

let suites = suites @ [ misc_suite ]
