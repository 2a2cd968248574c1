(* Tests for the VM system software: segments, regions, address spaces,
   fault handling, logging control, log extension, deferred copy and
   write protection. *)

open Lvm_machine
open Lvm_vm

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Segment} *)

let test_segment_basics () =
  let s = Segment.make ~id:1 ~kind:Segment.Std ~size:5000 in
  check "size rounded to pages" 8192 (Segment.size s);
  check "pages" 2 (Segment.pages s);
  Alcotest.(check (option int)) "no frame" None (Segment.frame_of_page s 0);
  Segment.set_frame s ~page:0 ~frame:7;
  Alcotest.(check (option int)) "frame set" (Some 7)
    (Segment.frame_of_page s 0);
  Segment.grow s ~pages:3;
  check "grown" 5 (Segment.pages s);
  Alcotest.(check (option int)) "old frame kept" (Some 7)
    (Segment.frame_of_page s 0)

let test_segment_log_state_guard () =
  let s = Segment.make ~id:1 ~kind:Segment.Std ~size:4096 in
  Alcotest.check_raises "std segment has no write_pos"
    (Error.Lvm_error (Error.Not_a_log_segment { op = "write_pos"; segment = 1 }))
    (fun () -> ignore (Segment.write_pos s))

(* {1 Region} *)

let test_region_validation () =
  let s = Segment.make ~id:1 ~kind:Segment.Std ~size:8192 in
  Alcotest.check_raises "offset alignment"
    (Error.Lvm_error
       (Error.Invalid
          { op = "Region.make"; reason = "segment offset must be page-aligned" }))
    (fun () -> ignore (Region.make ~id:2 ~segment:s ~seg_offset:100 ~size:4096));
  Alcotest.check_raises "exceeds segment"
    (Error.Lvm_error
       (Error.Invalid { op = "Region.make"; reason = "region exceeds segment" }))
    (fun () ->
      ignore (Region.make ~id:2 ~segment:s ~seg_offset:4096 ~size:8192));
  let r = Region.make ~id:2 ~segment:s ~seg_offset:4096 ~size:4096 in
  check "seg page of vaddr" 1
    (Region.seg_page_of_vaddr r ~base:0x10000 ~vaddr:0x10123)

let test_region_logging_switch () =
  let s = Segment.make ~id:1 ~kind:Segment.Std ~size:4096 in
  let r = Region.make ~id:2 ~segment:s ~seg_offset:0 ~size:4096 in
  check_bool "not logged without log" false (Region.is_logged r);
  let ls = Segment.make ~id:3 ~kind:Segment.Log ~size:4096 in
  Region.set_log r (Some ls);
  check_bool "logged" true (Region.is_logged r);
  Region.set_logging_enabled r false;
  check_bool "disabled" false (Region.is_logged r)

(* {1 Address space} *)

let test_space_bind_alloc () =
  let sp = Address_space.make ~id:1 in
  let seg = Segment.make ~id:1 ~kind:Segment.Std ~size:8192 in
  let r1 = Region.make ~id:2 ~segment:seg ~seg_offset:0 ~size:4096 in
  let r2 = Region.make ~id:3 ~segment:seg ~seg_offset:4096 ~size:4096 in
  let b1 = Address_space.bind sp r1 ~vaddr:None in
  let b2 = Address_space.bind sp r2 ~vaddr:None in
  check_bool "distinct bases" true (b1 <> b2);
  check_bool "gap between regions" true (abs (b2 - b1) >= 8192);
  Alcotest.(check (option int)) "find r1"
    (Some b1)
    (Option.map fst (Address_space.find_region sp ~vaddr:(b1 + 100)));
  Alcotest.(check (option int)) "find r2"
    (Some b2)
    (Option.map fst (Address_space.find_region sp ~vaddr:(b2 + 4000)))

let test_space_bind_overlap_rejected () =
  let sp = Address_space.make ~id:1 in
  let seg = Segment.make ~id:1 ~kind:Segment.Std ~size:8192 in
  let r1 = Region.make ~id:2 ~segment:seg ~seg_offset:0 ~size:8192 in
  let r2 = Region.make ~id:3 ~segment:seg ~seg_offset:0 ~size:8192 in
  ignore (Address_space.bind sp r1 ~vaddr:(Some 0x2000_0000));
  Alcotest.check_raises "overlap"
    (Error.Lvm_error
       (Error.Invalid
          { op = "Address_space.bind"; reason = "overlapping binding" }))
    (fun () -> ignore (Address_space.bind sp r2 ~vaddr:(Some 0x2000_1000)));
  Alcotest.check_raises "double bind"
    (Error.Lvm_error
       (Error.Invalid
          { op = "Address_space.bind"; reason = "region is already bound" }))
    (fun () -> ignore (Address_space.bind sp r1 ~vaddr:None))

let test_space_unbind () =
  let sp = Address_space.make ~id:1 in
  let seg = Segment.make ~id:1 ~kind:Segment.Std ~size:4096 in
  let r = Region.make ~id:2 ~segment:seg ~seg_offset:0 ~size:4096 in
  let b = Address_space.bind sp r ~vaddr:None in
  Address_space.install sp ~vpage:(Addr.page_number b)
    { Address_space.frame = 1; write_through = false; logged = false;
      protected_ = false; dirty = false; region = r; seg_page = 0 };
  Address_space.unbind sp r;
  Alcotest.(check (option int)) "region gone" None
    (Option.map fst (Address_space.find_region sp ~vaddr:b));
  check_bool "pte gone" true
    (Address_space.lookup sp ~vpage:(Addr.page_number b) = None);
  (* can rebind after unbind *)
  ignore (Address_space.bind sp r ~vaddr:None)

(* {1 Kernel: basic access} *)

let boot ?hw ?log_entries () =
  let k = Kernel.create ?hw ?log_entries () in
  let sp = Kernel.create_space k in
  (k, sp)

let test_kernel_rw_roundtrip () =
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:8192 in
  let r = Kernel.create_region k seg in
  let base = Kernel.bind k sp r in
  Kernel.write_word k sp (base + 0x10) 0xABCD;
  check "read back" 0xABCD (Kernel.read_word k sp (base + 0x10));
  Kernel.write k sp ~vaddr:(base + 0x20) ~size:1 0x5A;
  check "byte read back" 0x5A (Kernel.read k sp ~vaddr:(base + 0x20) ~size:1);
  check "page faults taken" 1 (Kernel.perf k).Perf.page_faults;
  (* second page still unfaulted *)
  check "other page zero" 0 (Kernel.read_word k sp (base + 4096));
  check "two page faults now" 2 (Kernel.perf k).Perf.page_faults

let test_kernel_segv () =
  let k, sp = boot () in
  check_bool "segv raised" true
    (try
       ignore (Kernel.read_word k sp 0x666000);
       false
     with Error.Lvm_error (Error.Segmentation_fault _) -> true)

let test_kernel_unaligned_rejected () =
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:4096 in
  let r = Kernel.create_region k seg in
  let base = Kernel.bind k sp r in
  Alcotest.check_raises "unaligned word"
    (Error.Lvm_error (Error.Unaligned_access { vaddr = base + 2; size = 4 }))
    (fun () -> ignore (Kernel.read k sp ~vaddr:(base + 2) ~size:4))

(* A fresh machine must be nearly free to build: crash sweeps, the
   benchmark's rounds and model checkers build one per run. The logger's
   2^15-slot PMT once cost 1.3 MB here; it now grows with the slots
   loaded. *)
let test_kernel_create_allocation () =
  let before = Gc.allocated_bytes () in
  let k = Kernel.create () in
  let bytes = Gc.allocated_bytes () -. before in
  ignore (Sys.opaque_identity k);
  check_bool
    (Printf.sprintf "%.0f bytes allocated by Kernel.create" bytes)
    true
    (bytes < 128. *. 1024.)

let test_kernel_manager_fill () =
  let k, sp = boot () in
  let filled = ref [] in
  let manager seg page =
    filled := page :: !filled;
    (* page-fill hook writes a recognizable pattern *)
    Kernel.seg_write_raw k seg ~off:(page * Addr.page_size) ~size:4 0xF11ED
  in
  let seg = Kernel.create_segment ~manager k ~size:8192 in
  let r = Kernel.create_region k seg in
  let base = Kernel.bind k sp r in
  check "manager content" 0xF11ED (Kernel.read_word k sp base);
  Alcotest.(check (list int)) "pages filled on demand" [ 0 ] !filled

let test_kernel_shared_segment_two_spaces () =
  let k = Kernel.create () in
  let sp1 = Kernel.create_space k in
  let sp2 = Kernel.create_space k in
  let seg = Kernel.create_segment k ~size:4096 in
  let r1 = Kernel.create_region k seg in
  let r2 = Kernel.create_region k seg in
  let b1 = Kernel.bind k sp1 r1 in
  let b2 = Kernel.bind k sp2 r2 in
  Kernel.write_word k sp1 (b1 + 8) 77;
  check "visible through other space" 77 (Kernel.read_word k sp2 (b2 + 8))

(* {1 Kernel: logging} *)

let logged_fixture ?hw ?log_entries ?(log_pages = 4) () =
  let k, sp = boot ?hw ?log_entries () in
  let seg = Kernel.create_segment k ~size:8192 in
  let r = Kernel.create_region k seg in
  let ls = Kernel.create_log_segment k ~size:(log_pages * Addr.page_size) in
  Kernel.set_region_log k r (Some ls);
  let base = Kernel.bind k sp r in
  (k, sp, seg, r, ls, base)

let test_logged_region_records () =
  let k, sp, _seg, _r, ls, base = logged_fixture () in
  Kernel.write_word k sp (base + 0x10) 11;
  Kernel.write_word k sp (base + 0x14) 22;
  Kernel.write_word k sp (base + 0x10) 33;
  check "three records" 3 (Lvm.Log_reader.record_count k ls);
  let records = Lvm.Log_reader.to_list k ls in
  Alcotest.(check (list int)) "values in order" [ 11; 22; 33 ]
    (List.map (fun r -> r.Log_record.value) records);
  (* timestamps are monotonic *)
  let ts = List.map (fun r -> r.Log_record.timestamp) records in
  check_bool "timestamps nondecreasing" true (List.sort compare ts = ts)

let test_logged_records_locate () =
  let k, sp, seg, _r, ls, base = logged_fixture () in
  Kernel.write_word k sp (base + 0x123 * 4) 99;
  match Lvm.Log_reader.to_list k ls with
  | [ r ] -> (
    check "offset in the owner segment" (0x123 * 4)
      (Lvm.Log_reader.located k ~seg r))
  | records ->
    Alcotest.failf "expected one record, got %d" (List.length records)

let test_log_page_crossing_extends () =
  let k, sp, _seg, _r, ls, base = logged_fixture ~log_pages:4 () in
  (* 256 records fill one log page; write 600 to cross two boundaries *)
  for i = 0 to 599 do
    Kernel.write_word k sp (base + (i mod 1024 * 4)) i
  done;
  check "all records kept" 600 (Lvm.Log_reader.record_count k ls);
  check "log-addr faults serviced" 2
    (Kernel.perf k).Perf.logging_faults_log_addr;
  let r = Lvm.Log_reader.read_at k ls ~off:(599 * 16) in
  check "last record value" 599 r.Log_record.value

(* A data page faulted in while the log's entry sits invalid at a page
   crossing: the PMT-miss repair must service that crossing (as the
   log-address fault would) rather than re-arm at the start of the page
   just filled. At an 8-byte stride the second data page is first
   touched by write 512, right after the records of 256..511 filled log
   page 1. *)
let test_pmt_miss_at_log_page_crossing () =
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:(4 * Addr.page_size) in
  let r = Kernel.create_region k seg in
  let ls = Kernel.create_log_segment k ~size:(64 * Addr.page_size) in
  Kernel.set_region_log k r (Some ls);
  let base = Kernel.bind k sp r in
  for i = 0 to 999 do
    Kernel.write_word k sp (base + (i * 8)) i
  done;
  Alcotest.(check (list int)) "every record, in order" (List.init 1000 Fun.id)
    (List.map
       (fun r -> r.Log_record.value)
       (Lvm.Log_reader.to_list k ls));
  check "no record lost" 0 (Kernel.perf k).Perf.log_records_lost

let test_log_capacity_absorbs_then_extends () =
  let k, sp, _seg, _r, ls, base = logged_fixture ~log_pages:1 () in
  let per_page = Addr.page_size / Log_record.bytes in
  for i = 0 to per_page + 49 do
    Kernel.write_word k sp base i
  done;
  Kernel.sync_log k ls;
  check_bool "absorbing after capacity" true (Segment.absorbing ls);
  check "only one page of records" per_page
    (Lvm.Log_reader.record_count k ls);
  check_bool "crossings counted" true (Segment.absorbed_crossings ls >= 1);
  (* extending resumes logging into the segment *)
  Lvm_log.extend (Lvm_log.of_segment k ls) ~pages:2;
  check_bool "no longer absorbing" false (Segment.absorbing ls);
  Kernel.write_word k sp base 4242;
  let n = Lvm.Log_reader.record_count k ls in
  check "record after extension" (per_page + 1) n;
  let r = Lvm.Log_reader.read_at k ls ~off:((n - 1) * 16) in
  check "extension record value" 4242 r.Log_record.value

let test_logging_disable_enable () =
  let k, sp, _seg, _r, ls, base = logged_fixture () in
  let region = _r in
  Kernel.write_word k sp base 1;
  Kernel.set_logging_enabled k region false;
  Kernel.write_word k sp base 2;
  Kernel.write_word k sp base 3;
  Kernel.set_logging_enabled k region true;
  Kernel.write_word k sp base 4;
  Alcotest.(check (list int)) "only enabled writes logged" [ 1; 4 ]
    (List.map
       (fun r -> r.Log_record.value)
       (Lvm.Log_reader.to_list k ls));
  check "data has final value" 4 (Kernel.read_word k sp base)

let test_attach_log_after_faulting () =
  (* A debugger attaches logging to an already-running region
     (Section 2.2): pages already resident must switch to logged mode. *)
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:4096 in
  let r = Kernel.create_region k seg in
  let base = Kernel.bind k sp r in
  Kernel.write_word k sp base 1 (* unlogged; faults the page in *);
  let ls = Kernel.create_log_segment k ~size:(4 * Addr.page_size) in
  Kernel.set_region_log k r (Some ls);
  Kernel.write_word k sp base 2;
  Alcotest.(check (list int)) "only post-attach writes" [ 2 ]
    (List.map (fun r -> r.Log_record.value) (Lvm.Log_reader.to_list k ls))

let test_log_slot_eviction () =
  (* More active logs than log-table slots: the kernel must evict and
     reactivate transparently without losing records. *)
  let k, sp = boot ~log_entries:2 () in
  let mk () =
    let seg = Kernel.create_segment k ~size:4096 in
    let r = Kernel.create_region k seg in
    let ls = Kernel.create_log_segment k ~size:(2 * Addr.page_size) in
    Kernel.set_region_log k r (Some ls);
    let base = Kernel.bind k sp r in
    (base, ls)
  in
  let fixtures = List.init 3 (fun _ -> mk ()) in
  for round = 0 to 9 do
    List.iter (fun (base, _) -> Kernel.write_word k sp base round) fixtures
  done;
  List.iter
    (fun (_, ls) ->
      check "each log has all its records" 10
        (Lvm.Log_reader.record_count k ls))
    fixtures

let test_per_region_logs_on_chip () =
  (* Section 4.6: with on-chip logging, two regions over the same segment
     can have distinct logs (per-region logging). *)
  let k, sp = boot ~hw:Logger.On_chip () in
  let seg = Kernel.create_segment k ~size:4096 in
  let r1 = Kernel.create_region k seg in
  let r2 = Kernel.create_region k seg in
  let ls1 = Kernel.create_log_segment k ~size:(2 * Addr.page_size) in
  let ls2 = Kernel.create_log_segment k ~size:(2 * Addr.page_size) in
  Kernel.set_region_log k r1 (Some ls1);
  Kernel.set_region_log k r2 (Some ls2);
  let b1 = Kernel.bind k sp r1 in
  let b2 = Kernel.bind k sp r2 in
  Kernel.write_word k sp (b1 + 4) 111;
  Kernel.write_word k sp (b2 + 8) 222;
  Kernel.write_word k sp (b1 + 12) 333;
  Alcotest.(check (list int)) "r1's log" [ 111; 333 ]
    (List.map (fun r -> r.Log_record.value) (Lvm.Log_reader.to_list k ls1));
  Alcotest.(check (list int)) "r2's log" [ 222 ]
    (List.map (fun r -> r.Log_record.value) (Lvm.Log_reader.to_list k ls2));
  (* on-chip records carry virtual addresses *)
  (match Lvm.Log_reader.to_list k ls1 with
  | r :: _ -> check "virtual address logged" (b1 + 4) r.Log_record.addr
  | [] -> Alcotest.fail "no record")

let test_truncate_log_prefix () =
  let k, sp, _seg, _r, ls, base = logged_fixture () in
  for i = 0 to 9 do
    Kernel.write_word k sp (base + (i * 4)) (i * 10)
  done;
  Lvm_log.truncate (Lvm_log.of_segment k ls)
    ~keep_from:(6 * Log_record.bytes);
  check "four records kept" 4 (Lvm.Log_reader.record_count k ls);
  Alcotest.(check (list int)) "kept tail compacted" [ 60; 70; 80; 90 ]
    (List.map (fun r -> r.Log_record.value) (Lvm.Log_reader.to_list k ls));
  (* logging continues after truncation *)
  Kernel.write_word k sp base 12345;
  check "record after truncate" 5 (Lvm.Log_reader.record_count k ls)

let test_truncate_log_suffix () =
  let k, sp, _seg, _r, ls, base = logged_fixture () in
  for i = 0 to 9 do
    Kernel.write_word k sp (base + (i * 4)) i
  done;
  Lvm_log.truncate_suffix (Lvm_log.of_segment k ls)
    ~new_end:(3 * Log_record.bytes);
  Alcotest.(check (list int)) "prefix kept" [ 0; 1; 2 ]
    (List.map (fun r -> r.Log_record.value) (Lvm.Log_reader.to_list k ls));
  Kernel.write_word k sp base 555;
  Alcotest.(check (list int)) "appends after the cut" [ 0; 1; 2; 555 ]
    (List.map (fun r -> r.Log_record.value) (Lvm.Log_reader.to_list k ls))

(* {1 Kernel: deferred copy} *)

let dc_fixture () =
  let k, sp = boot () in
  let working = Kernel.create_segment k ~size:8192 in
  let ckpt = Kernel.create_segment k ~size:8192 in
  (* initialize the checkpoint *)
  for w = 0 to 2047 do
    Kernel.seg_write_raw k ckpt ~off:(w * 4) ~size:4 (w + 1000)
  done;
  Kernel.declare_source k ~dst:working ~src:ckpt ~offset:0;
  let r = Kernel.create_region k working in
  let base = Kernel.bind k sp r in
  (k, sp, working, ckpt, r, base)

let test_dc_read_through () =
  let k, sp, _, _, _, base = dc_fixture () in
  check "reads source" 1000 (Kernel.read_word k sp base);
  check "reads source high" (2047 + 1000)
    (Kernel.read_word k sp (base + (2047 * 4)))

let test_dc_write_then_reset () =
  let k, sp, _w, _c, r, base = dc_fixture () in
  Kernel.write_word k sp (base + 40) 7;
  check "sees write" 7 (Kernel.read_word k sp (base + 40));
  check "source unchanged elsewhere" 1011 (Kernel.read_word k sp (base + 44));
  Kernel.reset_deferred_copy k sp ~start:base ~len:(Region.size r);
  check "back to source" 1010 (Kernel.read_word k sp (base + 40))

let test_dc_reset_cost_scales_with_dirty () =
  let k, sp, _w, _c, r, base = dc_fixture () in
  (* reset with one dirty page *)
  Kernel.write_word k sp base 1;
  let t0 = Kernel.time k in
  Kernel.reset_deferred_copy k sp ~start:base ~len:(Region.size r);
  let one_dirty = Kernel.time k - t0 in
  (* reset with both pages dirty *)
  Kernel.write_word k sp base 1;
  Kernel.write_word k sp (base + 4096) 2;
  let t1 = Kernel.time k in
  Kernel.reset_deferred_copy k sp ~start:base ~len:(Region.size r);
  let two_dirty = Kernel.time k - t1 in
  (* reset with nothing dirty *)
  let t2 = Kernel.time k in
  Kernel.reset_deferred_copy k sp ~start:base ~len:(Region.size r);
  let clean = Kernel.time k - t2 in
  check_bool "clean reset cheapest" true (clean < one_dirty);
  check_bool "dirty pages add cost" true (one_dirty < two_dirty);
  (* the second reset scans one more resident page and sweeps one more
     dirty page *)
  check "per-dirty-page cost" (two_dirty - one_dirty)
    (Cycles.dc_reset_per_page
     + (Addr.lines_per_page * Cycles.dc_reset_per_dirty_line))

let test_dc_reset_segment () =
  let k, sp, working, _c, _r, base = dc_fixture () in
  Kernel.write_word k sp (base + 100 * 4) 5;
  Kernel.reset_deferred_segment k working;
  check "reset via segment" 1100 (Kernel.read_word k sp (base + (100 * 4)))

let test_dc_partial_line_merge_via_kernel () =
  let k, sp, _w, _c, _r, base = dc_fixture () in
  (* write one word of a line; neighbors must show checkpoint values *)
  Kernel.write_word k sp (base + 0x20) 9;
  check "written" 9 (Kernel.read_word k sp (base + 0x20));
  check "neighbor from checkpoint" (8 + 1 + 1000)
    (Kernel.read_word k sp (base + 0x24))

(* {1 Checkpoint / rollback / CULT} *)

(* A fully wired simulation-style fixture (Figure 3): logged working
   region whose deferred-copy source is a checkpoint segment. *)
let sim_fixture ?(words = 64) () =
  let k, sp = boot () in
  let size = Addr.align_up (words * 4) ~alignment:Addr.page_size in
  let working = Kernel.create_segment k ~size in
  let ckpt = Kernel.create_segment k ~size in
  for w = 0 to words - 1 do
    Kernel.seg_write_raw k ckpt ~off:(w * 4) ~size:4 (w * 2)
  done;
  Kernel.declare_source k ~dst:working ~src:ckpt ~offset:0;
  let region = Kernel.create_region k working in
  let ls = Kernel.create_log_segment k ~size:(16 * Addr.page_size) in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  (k, sp, working, ckpt, region, ls, base)

let working_words k sp ~base ~words =
  List.init words (fun w -> Kernel.read_word k sp (base + (w * 4)))

let test_rollback_to_marker () =
  let k, sp, working, _ckpt, region, ls, base = sim_fixture () in
  (* writes tagged by log order; roll back to keep only the first two *)
  Kernel.write_word k sp (base + 0) 100;
  Kernel.write_word k sp (base + 4) 101;
  Kernel.write_word k sp (base + 8) 102;
  Kernel.write_word k sp (base + 0) 103;
  let kept = ref 0 in
  Lvm.Checkpoint.rollback k ~space:sp ~working ~working_region:region ~base
    ~log:ls
    ~upto:(fun _ _ ->
      incr kept;
      !kept <= 2);
  check "word0 from first write" 100 (Kernel.read_word k sp (base + 0));
  check "word1 from second write" 101 (Kernel.read_word k sp (base + 4));
  check "word2 rolled back to checkpoint" 4
    (Kernel.read_word k sp (base + 8));
  check "log truncated to prefix" 2 (Lvm.Log_reader.record_count k ls);
  (* logging resumes after rollback *)
  Kernel.write_word k sp (base + 12) 999;
  check "logging re-enabled" 3 (Lvm.Log_reader.record_count k ls)

let test_cult_folds_into_checkpoint () =
  let k, sp, working, ckpt, _region, ls, base = sim_fixture () in
  Kernel.write_word k sp (base + 0) 11;
  Kernel.write_word k sp (base + 20) 13;
  let applied = Lvm.Checkpoint.cult_all k ~working ~checkpoint:ckpt ~log:ls in
  check "records applied" 2 applied;
  check "log empty after cult" 0 (Lvm.Log_reader.record_count k ls);
  check "checkpoint updated word0" 11
    (Kernel.seg_read_raw k ckpt ~off:0 ~size:4);
  check "checkpoint updated word5" 13
    (Kernel.seg_read_raw k ckpt ~off:20 ~size:4);
  check "checkpoint untouched elsewhere" 8
    (Kernel.seg_read_raw k ckpt ~off:16 ~size:4)

let test_cult_then_rollback_loses_nothing () =
  let k, sp, working, ckpt, region, ls, base = sim_fixture () in
  Kernel.write_word k sp (base + 0) 21;
  Kernel.write_word k sp (base + 4) 22;
  ignore (Lvm.Checkpoint.cult_all k ~working ~checkpoint:ckpt ~log:ls);
  Kernel.write_word k sp (base + 8) 23;
  (* roll back discarding the post-CULT write *)
  Lvm.Checkpoint.rollback k ~space:sp ~working ~working_region:region ~base
    ~log:ls ~upto:(fun _ _ -> false);
  check "pre-CULT write survives" 21 (Kernel.read_word k sp (base + 0));
  check "pre-CULT write survives 2" 22 (Kernel.read_word k sp (base + 4));
  (* word 2's initial value was 2*2 = 4 *)
  check "post-CULT write rolled back" 4 (Kernel.read_word k sp (base + 8))

(* The V0 roll-forward under the prototype logger builds no record and
   no (segment, offset) pair: its allocation is per walk, not per
   record. *)
let test_replay_allocates_nothing_per_record () =
  let k, sp, working, _ckpt, _region, ls, base = sim_fixture () in
  for i = 0 to 1999 do
    Kernel.write_word k sp (base + (i mod 64 * 4)) i
  done;
  let m = Kernel.machine k in
  let seen = ref 0 in
  let before = Gc.minor_words () in
  let stop =
    Lvm.Checkpoint.replay k ~log:ls ~from:0 ~seg:working
      ~f:(fun ~off:_ ~paddr ~size ~value ->
        incr seen;
        Machine.write m ~paddr ~size ~mode:Machine.Write_back ~logged:false
          value;
        true)
  in
  let words = Gc.minor_words () -. before in
  check "every record offered" 2000 !seen;
  check "whole log consumed" (2000 * Lvm_machine.Log_record.bytes) stop;
  check_bool
    (Printf.sprintf "%.0f minor words for 2000 records" words)
    true (words < 2000.)

(* Property: rolling back after a random write burst reproduces exactly
   the state obtained by applying the kept prefix to the initial state. *)
let prop_rollback_equals_prefix_replay =
  let words = 32 in
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 40 in
      let* keep = int_range 0 n in
      let* writes =
        list_size (return n) (pair (int_bound (words - 1)) (int_bound 10_000))
      in
      return (writes, keep))
  in
  let print (writes, keep) =
    Printf.sprintf "keep=%d writes=[%s]" keep
      (String.concat ";"
         (List.map (fun (w, v) -> Printf.sprintf "%d:%d" w v) writes))
  in
  QCheck.Test.make ~name:"rollback = prefix replay" ~count:60
    (QCheck.make ~print gen) (fun (writes, keep) ->
      let k, sp, working, _ckpt, region, ls, base = sim_fixture ~words () in
      List.iter
        (fun (w, v) -> Kernel.write_word k sp (base + (w * 4)) v)
        writes;
      let seen = ref 0 in
      Lvm.Checkpoint.rollback k ~space:sp ~working ~working_region:region
        ~base ~log:ls
        ~upto:(fun _ _ ->
          incr seen;
          !seen <= keep);
      (* model: initial state then the kept prefix *)
      let expect = Array.init words (fun w -> w * 2) in
      List.iteri
        (fun i (w, v) -> if i < keep then expect.(w) <- v)
        writes;
      working_words k sp ~base ~words = Array.to_list expect)

(* {1 Write protection (page-protect baseline)} *)

let test_protect_fault_once_per_page () =
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:8192 in
  let r = Kernel.create_region k seg in
  let base = Kernel.bind k sp r in
  let faults = ref [] in
  Kernel.set_protect_fault_handler k
    (Some (fun _sp _r ~vaddr -> faults := vaddr :: !faults));
  (* touch pages in, then protect *)
  Kernel.write_word k sp base 0;
  Kernel.write_word k sp (base + 4096) 0;
  Kernel.protect_region k r;
  let t0 = Kernel.time k in
  Kernel.write_word k sp (base + 8) 1;
  let fault_cost = Kernel.time k - t0 in
  check_bool "protect fault charged" true
    (fault_cost >= Cycles.write_protect_fault);
  Kernel.write_word k sp (base + 12) 2;
  Kernel.write_word k sp (base + 4096) 3;
  check "one fault per touched page" 2 (List.length !faults);
  check "perf counter" 2 (Kernel.perf k).Perf.write_protect_faults;
  check "writes landed" 1 (Kernel.read_word k sp (base + 8))

let suites =
  [
    ( "vm.segment",
      [
        Alcotest.test_case "basics" `Quick test_segment_basics;
        Alcotest.test_case "log-state guard" `Quick
          test_segment_log_state_guard;
      ] );
    ( "vm.region",
      [
        Alcotest.test_case "validation" `Quick test_region_validation;
        Alcotest.test_case "logging switch" `Quick test_region_logging_switch;
      ] );
    ( "vm.address-space",
      [
        Alcotest.test_case "bind allocation" `Quick test_space_bind_alloc;
        Alcotest.test_case "overlap rejected" `Quick
          test_space_bind_overlap_rejected;
        Alcotest.test_case "unbind" `Quick test_space_unbind;
      ] );
    ( "vm.kernel",
      [
        Alcotest.test_case "read-write roundtrip" `Quick
          test_kernel_rw_roundtrip;
        Alcotest.test_case "segmentation fault" `Quick test_kernel_segv;
        Alcotest.test_case "unaligned rejected" `Quick
          test_kernel_unaligned_rejected;
        Alcotest.test_case "manager fill hook" `Quick test_kernel_manager_fill;
        Alcotest.test_case "create allocates under 128 KiB" `Quick
          test_kernel_create_allocation;
        Alcotest.test_case "shared segment two spaces" `Quick
          test_kernel_shared_segment_two_spaces;
      ] );
    ( "vm.logging",
      [
        Alcotest.test_case "records for logged region" `Quick
          test_logged_region_records;
        Alcotest.test_case "locate record" `Quick test_logged_records_locate;
        Alcotest.test_case "page crossing" `Quick
          test_log_page_crossing_extends;
        Alcotest.test_case "pmt miss at a log page crossing" `Quick
          test_pmt_miss_at_log_page_crossing;
        Alcotest.test_case "absorb then extend" `Quick
          test_log_capacity_absorbs_then_extends;
        Alcotest.test_case "disable/enable" `Quick test_logging_disable_enable;
        Alcotest.test_case "attach log after faulting" `Quick
          test_attach_log_after_faulting;
        Alcotest.test_case "slot eviction" `Quick test_log_slot_eviction;
        Alcotest.test_case "per-region logs on-chip" `Quick
          test_per_region_logs_on_chip;
        Alcotest.test_case "truncate prefix" `Quick test_truncate_log_prefix;
        Alcotest.test_case "truncate suffix" `Quick test_truncate_log_suffix;
      ] );
    ( "vm.deferred-copy",
      [
        Alcotest.test_case "read through" `Quick test_dc_read_through;
        Alcotest.test_case "write then reset" `Quick test_dc_write_then_reset;
        Alcotest.test_case "reset cost scales with dirty" `Quick
          test_dc_reset_cost_scales_with_dirty;
        Alcotest.test_case "reset segment" `Quick test_dc_reset_segment;
        Alcotest.test_case "partial line merge" `Quick
          test_dc_partial_line_merge_via_kernel;
      ] );
    ( "vm.checkpoint",
      [
        Alcotest.test_case "rollback to marker" `Quick test_rollback_to_marker;
        Alcotest.test_case "cult folds into checkpoint" `Quick
          test_cult_folds_into_checkpoint;
        Alcotest.test_case "cult then rollback" `Quick
          test_cult_then_rollback_loses_nothing;
        Alcotest.test_case "replay allocates nothing per record" `Quick
          test_replay_allocates_nothing_per_record;
        QCheck_alcotest.to_alcotest prop_rollback_equals_prefix_replay;
      ] );
    ( "vm.protection",
      [
        Alcotest.test_case "fault once per page" `Quick
          test_protect_fault_once_per_page;
      ] );
  ]


(* {1 More log and deferred-copy properties} *)

(* Truncation keeps exactly the suffix, regardless of split point. *)
let prop_truncate_keeps_suffix =
  QCheck.Test.make ~name:"truncate_log keeps the suffix" ~count:40
    QCheck.(pair (list_of_size (Gen.int_range 1 60) (int_bound 9999))
              (int_bound 60))
    (fun (values, cut) ->
      let k, sp = boot () in
      let seg = Kernel.create_segment k ~size:4096 in
      let region = Kernel.create_region k seg in
      let ls = Kernel.create_log_segment k ~size:(8 * Addr.page_size) in
      Kernel.set_region_log k region (Some ls);
      let base = Kernel.bind k sp region in
      List.iteri (fun i v -> Kernel.write_word k sp (base + (i mod 256 * 4)) v)
        values;
      let cut = min cut (List.length values) in
      Lvm_log.truncate (Lvm_log.of_segment k ls)
        ~keep_from:(cut * Log_record.bytes);
      let kept =
        List.map (fun (r : Log_record.t) -> r.Log_record.value)
          (Lvm.Log_reader.to_list k ls)
      in
      kept = List.filteri (fun i _ -> i >= cut) values)

(* Reset after arbitrary writes always restores the checkpoint exactly. *)
let prop_reset_restores_source =
  QCheck.Test.make ~name:"reset restores checkpoint exactly" ~count:40
    QCheck.(list_of_size (Gen.int_range 0 80)
              (pair (int_bound 511) (int_bound 9999)))
    (fun writes ->
      let k, sp = boot () in
      let working = Kernel.create_segment k ~size:8192 in
      let ckpt = Kernel.create_segment k ~size:8192 in
      for w = 0 to 511 do
        Kernel.seg_write_raw k ckpt ~off:(w * 4) ~size:4 (w * 3)
      done;
      Kernel.declare_source k ~dst:working ~src:ckpt ~offset:0;
      let region = Kernel.create_region k working in
      let base = Kernel.bind k sp region in
      List.iter (fun (w, v) -> Kernel.write_word k sp (base + (w * 4)) v)
        writes;
      Kernel.reset_deferred_copy k sp ~start:base ~len:8192;
      let ok = ref true in
      for w = 0 to 511 do
        if Kernel.read_word k sp (base + (w * 4)) <> w * 3 then ok := false
      done;
      !ok)

let property_suite =
  ( "vm.properties",
    [
      QCheck_alcotest.to_alcotest prop_truncate_keeps_suffix;
      QCheck_alcotest.to_alcotest prop_reset_restores_source;
    ] )

let suites = suites @ [ property_suite ]
