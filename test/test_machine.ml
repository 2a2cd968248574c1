(* Tests for the simulated hardware: address arithmetic, physical memory,
   bus, FIFOs, caches, deferred copy and the logger. *)

open Lvm_machine

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Addr} *)

let test_addr_basics () =
  check "page_number" 3 (Addr.page_number 0x3abc);
  check "page_base" 0x3000 (Addr.page_base 0x3abc);
  check "page_offset" 0xabc (Addr.page_offset 0x3abc);
  check "line_base" 0x3ab0 (Addr.line_base 0x3abc);
  check "addr_of_page" 0x5000 (Addr.addr_of_page 5);
  check "align_up" 0x2000 (Addr.align_up 0x1001 ~alignment:0x1000);
  check "align_up exact" 0x1000 (Addr.align_up 0x1000 ~alignment:0x1000);
  check "pages_spanning" 2 (Addr.pages_spanning 4097);
  check "pages_spanning exact" 1 (Addr.pages_spanning 4096);
  check "pages_spanning zero" 0 (Addr.pages_spanning 0);
  check_bool "word aligned" true (Addr.is_word_aligned 8);
  check_bool "word unaligned" false (Addr.is_word_aligned 6);
  check_bool "page aligned" true (Addr.is_page_aligned 8192)

let prop_addr_decompose =
  QCheck.Test.make ~name:"addr = page_base + page_offset" ~count:500
    QCheck.(int_bound 0xFFFFFF)
    (fun a -> Addr.page_base a + Addr.page_offset a = a)

let prop_addr_page_roundtrip =
  QCheck.Test.make ~name:"page_number (addr_of_page p) = p" ~count:500
    QCheck.(int_bound 0xFFFF)
    (fun p -> Addr.page_number (Addr.addr_of_page p) = p)

(* {1 Physmem} *)

let test_physmem_rw () =
  let m = Physmem.create ~frames:4 in
  Physmem.write_word m 0x100 0xDEADBEEF;
  check "word" 0xDEADBEEF (Physmem.read_word m 0x100);
  Physmem.write_byte m 0x200 0xAB;
  check "byte" 0xAB (Physmem.read_byte m 0x200);
  Physmem.write_half m 0x300 0x1234;
  check "half" 0x1234 (Physmem.read_half m 0x300);
  Physmem.write_sized m 0x400 ~size:4 0x7FFFFFFF;
  check "sized word" 0x7FFFFFFF (Physmem.read_sized m 0x400 ~size:4);
  (* little-endian layout *)
  Physmem.write_word m 0x500 0x04030201;
  check "le byte 0" 1 (Physmem.read_byte m 0x500);
  check "le byte 3" 4 (Physmem.read_byte m 0x503)

let test_physmem_truncates () =
  let m = Physmem.create ~frames:1 in
  Physmem.write_byte m 0 0x1FF;
  check "byte truncated" 0xFF (Physmem.read_byte m 0);
  Physmem.write_half m 2 0x12345;
  check "half truncated" 0x2345 (Physmem.read_half m 2)

let test_physmem_alloc () =
  let m = Physmem.create ~frames:3 in
  check "free initially" 3 (Physmem.frames_free m);
  let a = Physmem.alloc_frame m in
  let b = Physmem.alloc_frame m in
  let c = Physmem.alloc_frame m in
  check_bool "frames distinct" true (a <> b && b <> c && a <> c);
  check "none free" 0 (Physmem.frames_free m);
  Alcotest.check_raises "out of frames" Physmem.Out_of_frames (fun () ->
      ignore (Physmem.alloc_frame m));
  Physmem.free_frame m b;
  check "one free" 1 (Physmem.frames_free m);
  let b' = Physmem.alloc_frame m in
  check "frame reused" b b'

let test_physmem_alloc_zeroed () =
  let m = Physmem.create ~frames:2 in
  let f = Physmem.alloc_frame m in
  Physmem.write_word m (Addr.addr_of_page f) 42;
  Physmem.free_frame m f;
  let f' = Physmem.alloc_frame m in
  check "same frame" f f';
  check "zero filled" 0 (Physmem.read_word m (Addr.addr_of_page f'))

let test_physmem_bounds () =
  let m = Physmem.create ~frames:1 in
  Alcotest.check_raises "read oob"
    (Invalid_argument "Physmem: address 0x1000+4 out of range") (fun () ->
      ignore (Physmem.read_word m 4096))

let test_physmem_blit () =
  let m = Physmem.create ~frames:2 in
  Physmem.write_word m 0 0xCAFE;
  Physmem.write_word m 4 0xF00D;
  Physmem.blit m ~src:0 ~dst:4096 ~len:8;
  check "blit word0" 0xCAFE (Physmem.read_word m 4096);
  check "blit word1" 0xF00D (Physmem.read_word m 4100)

(* {1 Bus} *)

let test_bus_fcfs () =
  let perf = Perf.create () in
  let bus = Bus.create perf in
  check "first access" 15 (Bus.access bus ~track:Bus.Cpu ~now:10 ~cycles:5);
  (* second request at t=12 waits for the track *)
  check "queued access" 23 (Bus.access bus ~track:Bus.Cpu ~now:12 ~cycles:8);
  (* request after the track is idle starts immediately *)
  check "idle access" 105 (Bus.access bus ~track:Bus.Cpu ~now:100 ~cycles:5);
  check "busy cycles counted" 18 perf.Perf.bus_busy_cycles

let test_bus_track_priority () =
  let perf = Perf.create () in
  let bus = Bus.create perf in
  (* a long backlog of low-priority DMA does not delay CPU transactions *)
  for i = 0 to 9 do
    ignore (Bus.access bus ~track:Bus.Dma ~now:(i * 2) ~cycles:8)
  done;
  check "cpu unaffected by dma backlog" 10
    (Bus.access bus ~track:Bus.Cpu ~now:5 ~cycles:5);
  check_bool "dma backlog extends its own track" true
    (Bus.free_at bus ~track:Bus.Dma > 70)

(* {1 Fifo} *)

let test_fifo_drain () =
  let f = Fifo.create ~capacity:4 in
  check "empty" 0 (Fifo.occupancy f ~now:0);
  Fifo.push f ~drain_time:10;
  Fifo.push f ~drain_time:20;
  Fifo.push f ~drain_time:30;
  check "three queued" 3 (Fifo.occupancy f ~now:5);
  check "one drained" 2 (Fifo.occupancy f ~now:10);
  check "all drained" 0 (Fifo.occupancy f ~now:100);
  check "last drain" 30 (Fifo.last_drain_time f)

let test_fifo_overflow () =
  let f = Fifo.create ~capacity:2 in
  Fifo.push f ~drain_time:10;
  Fifo.push f ~drain_time:20;
  Alcotest.check_raises "overflow" (Invalid_argument "Fifo.push: overflow")
    (fun () -> Fifo.push f ~drain_time:30)

let test_fifo_head_drain () =
  let f = Fifo.create ~capacity:4 in
  Alcotest.(check (option int)) "empty head" None (Fifo.head_drain_time f);
  Fifo.push f ~drain_time:7;
  Fifo.push f ~drain_time:9;
  Alcotest.(check (option int)) "head" (Some 7) (Fifo.head_drain_time f)

let test_fifo_wraparound () =
  let f = Fifo.create ~capacity:3 in
  for round = 0 to 9 do
    let t = (round * 100) + 50 in
    Fifo.push f ~drain_time:t;
    check "one queued" 1 (Fifo.occupancy f ~now:(t - 1));
    check "drained" 0 (Fifo.occupancy f ~now:t)
  done

(* {1 L1 cache} *)

let test_l1_hit_miss () =
  let perf = Perf.create () in
  let bus = Bus.create perf in
  let l1 = L1_cache.create bus perf in
  let t1 = L1_cache.read l1 ~now:0 ~paddr:0x100 in
  check "miss costs fill + access" (Cycles.l1_fill_total + Cycles.l1_hit) t1;
  let t2 = L1_cache.read l1 ~now:t1 ~paddr:0x104 in
  check "same-line hit is 1 cycle" (t1 + Cycles.l1_hit) t2;
  check "one miss" 1 perf.Perf.l1_misses;
  check "one hit" 1 perf.Perf.l1_hits

let test_l1_write_through_timing () =
  let perf = Perf.create () in
  let bus = Bus.create perf in
  let l1 = L1_cache.create bus perf in
  let t1 = L1_cache.write_through l1 ~now:0 ~paddr:0x100 in
  check "write-through is 6 cycles" Cycles.word_write_through_total t1;
  check "write-through counted" 1 perf.Perf.write_throughs;
  (* back-to-back write-throughs are serialized by the bus *)
  let t2 = L1_cache.write_through l1 ~now:t1 ~paddr:0x104 in
  check "second write-through" (t1 + Cycles.word_write_through_total) t2

let test_l1_write_back_dirty_eviction () =
  let perf = Perf.create () in
  let bus = Bus.create perf in
  let l1 = L1_cache.create bus perf in
  (* Write a line, then force a conflicting fill 8 KB away: the dirty
     victim must be written back before the fill. *)
  let t1 = L1_cache.write_back_mode_write l1 ~now:0 ~paddr:0x100 in
  let t2 = L1_cache.read l1 ~now:t1 ~paddr:(0x100 + 8192) in
  check "write-backs" 1 perf.Perf.l1_write_backs;
  check_bool "eviction costs extra" true
    (t2 - t1 > Cycles.l1_fill_total + Cycles.l1_hit)

let test_l1_invalidate_page () =
  let perf = Perf.create () in
  let bus = Bus.create perf in
  let l1 = L1_cache.create bus perf in
  ignore (L1_cache.read l1 ~now:0 ~paddr:0x100);
  check_bool "resident" true (L1_cache.contains_line l1 ~paddr:0x100);
  L1_cache.invalidate_page l1 ~page:0;
  check_bool "invalidated" false (L1_cache.contains_line l1 ~paddr:0x100)

(* {1 Deferred cache} *)

let dc_fixture () =
  let perf = Perf.create () in
  let mem = Physmem.create ~frames:4 in
  let dc = Deferred_cache.create mem perf in
  (mem, dc)

let test_dc_read_redirect () =
  let mem, dc = dc_fixture () in
  (* page 1 is the destination, page 0 the source *)
  Physmem.write_word mem 0x10 0xAAAA;
  Deferred_cache.map dc ~dst_page:1 ~src_addr:0;
  let r = Deferred_cache.resolve_read dc ~paddr:0x1010 in
  check "unmodified line reads source" 0x10 r;
  check "unmapped page reads itself" 0x2010
    (Deferred_cache.resolve_read dc ~paddr:0x2010)

let test_dc_write_merges_line () =
  let mem, dc = dc_fixture () in
  (* source line holds 4 words; write one word in the destination and the
     other three must come from the source. *)
  for i = 0 to 3 do
    Physmem.write_word mem (0x20 + (i * 4)) (100 + i)
  done;
  Deferred_cache.map dc ~dst_page:1 ~src_addr:0;
  Deferred_cache.note_write dc ~paddr:0x1024;
  Physmem.write_word mem 0x1024 777;
  check "written word" 777
    (Physmem.read_word mem (Deferred_cache.resolve_read dc ~paddr:0x1024));
  check "merged word 0" 100
    (Physmem.read_word mem (Deferred_cache.resolve_read dc ~paddr:0x1020));
  check "merged word 3" 103
    (Physmem.read_word mem (Deferred_cache.resolve_read dc ~paddr:0x102c))

let test_dc_dirty_and_reset () =
  let mem, dc = dc_fixture () in
  Physmem.write_word mem 0x40 123;
  Deferred_cache.map dc ~dst_page:1 ~src_addr:0;
  check_bool "clean initially" false (Deferred_cache.page_dirty dc ~dst_page:1);
  Deferred_cache.note_write dc ~paddr:0x1040;
  Physmem.write_word mem 0x1040 456;
  check_bool "dirty after write" true
    (Deferred_cache.page_dirty dc ~dst_page:1);
  let was_dirty = ref false in
  let cost = Deferred_cache.reset_page dc ~dst_page:1 ~was_dirty in
  check_bool "reset saw dirty" true !was_dirty;
  check "dirty reset cost" (Cycles.dc_reset_per_page
                            + (Addr.lines_per_page
                               * Cycles.dc_reset_per_dirty_line))
    cost;
  check "read back from source after reset" 123
    (Physmem.read_word mem (Deferred_cache.resolve_read dc ~paddr:0x1040));
  let cost_clean = Deferred_cache.reset_page dc ~dst_page:1 ~was_dirty in
  check_bool "second reset clean" false !was_dirty;
  check "clean reset cost" Cycles.dc_reset_per_page cost_clean

let test_dc_unmap () =
  let _, dc = dc_fixture () in
  Deferred_cache.map dc ~dst_page:2 ~src_addr:0;
  check_bool "mapped" true (Deferred_cache.is_mapped dc ~dst_page:2);
  Deferred_cache.unmap dc ~dst_page:2;
  check_bool "unmapped" false (Deferred_cache.is_mapped dc ~dst_page:2);
  Alcotest.(check (list int)) "no mapped pages" []
    (Deferred_cache.mapped_pages dc)

(* {1 Log record} *)

let test_log_record_roundtrip () =
  let mem = Physmem.create ~frames:1 in
  let r = { Log_record.addr = 0x1234; value = 0xBEEF; size = 4;
            timestamp = 99; pre_image = false } in
  Log_record.encode_to mem ~paddr:0x80 r;
  let r' = Log_record.decode_from mem ~paddr:0x80 in
  check_bool "roundtrip" true (Log_record.equal r r')

let prop_log_record_roundtrip =
  let gen =
    QCheck.Gen.(
      let* addr = int_bound 0xFFFFFF in
      let* value = int_bound 0xFFFFFF in
      let* size = oneofl [ 1; 2; 4 ] in
      let* timestamp = int_bound 0xFFFFFF in
      let* pre_image = bool in
      return { Log_record.addr; value; size; timestamp; pre_image })
  in
  let arb = QCheck.make ~print:(Format.asprintf "%a" Log_record.pp) gen in
  QCheck.Test.make ~name:"log record encode/decode roundtrip" ~count:300 arb
    (fun r ->
      let buf = Bytes.create Log_record.bytes in
      Log_record.encode_bytes buf ~pos:0 r;
      Log_record.equal r (Log_record.decode_bytes buf ~pos:0))

(* {1 Logger} *)

(* A miniature kernel for driving the logger directly: page [data_page] is
   logged to log index 0, whose records land in [log_page]; faults extend
   into [spare_pages]. *)
let logger_fixture ?hw ?(spare_pages = []) ~data_page ~log_page () =
  let clock = ref 0 in
  let perf = Perf.create () in
  let mem = Physmem.create ~frames:16 in
  let bus = Bus.create perf in
  let logger = Logger.create ?hw ~clock mem bus perf in
  let spare = ref spare_pages in
  Logger.load_pmt logger ~page:data_page ~log_index:0;
  Logger.set_log_entry logger ~index:0 ~mode:Logger.Normal
    ~addr:(Addr.addr_of_page log_page);
  Logger.set_fault_handler logger (function
    | Logger.Pmt_miss _ -> Logger.Drop
    | Logger.Log_addr_invalid { log_index } -> (
      match !spare with
      | [] -> Logger.Drop
      | p :: rest ->
        spare := rest;
        Logger.set_log_entry logger ~index:log_index ~mode:Logger.Normal
          ~addr:(Addr.addr_of_page p);
        Logger.Fixed));
  (clock, mem, logger, perf)

let test_logger_single_record () =
  let clock, mem, logger, perf =
    logger_fixture ~data_page:1 ~log_page:2 ()
  in
  clock := 400;
  Logger.snoop logger ~paddr:0x1010 ~vaddr:0x40001010 ~size:4 ~value:0xFEED;
  check "one record" 1 perf.Perf.log_records;
  let r = Log_record.decode_from mem ~paddr:0x2000 in
  check "record addr is physical" 0x1010 r.Log_record.addr;
  check "record value" 0xFEED r.Log_record.value;
  check "record size" 4 r.Log_record.size;
  check "record timestamp" (400 / Cycles.timestamp_divider)
    r.Log_record.timestamp;
  (match Logger.log_entry logger ~index:0 with
  | Some (Logger.Normal, addr) -> check "log advanced" (0x2000 + 16) addr
  | _ -> Alcotest.fail "log entry should be valid")

let test_logger_sequential_records () =
  let clock, mem, logger, perf =
    logger_fixture ~data_page:1 ~log_page:2 ()
  in
  for i = 0 to 9 do
    clock := !clock + 100;
    Logger.snoop logger ~paddr:(0x1000 + (i * 4)) ~vaddr:(0x1000 + (i * 4))
      ~size:4 ~value:i
  done;
  check "ten records" 10 perf.Perf.log_records;
  for i = 0 to 9 do
    let r = Log_record.decode_from mem ~paddr:(0x2000 + (i * 16)) in
    check (Printf.sprintf "record %d value" i) i r.Log_record.value;
    check (Printf.sprintf "record %d addr" i) (0x1000 + (i * 4))
      r.Log_record.addr
  done

let test_logger_virtual_addresses_on_chip () =
  let _, mem, logger, _ =
    logger_fixture ~hw:Logger.On_chip ~data_page:1 ~log_page:2 ()
  in
  (* on-chip tables are keyed by virtual page *)
  Logger.load_pmt logger ~page:(Addr.page_number 0xABCD0) ~log_index:0;
  Logger.snoop logger ~paddr:0x1010 ~vaddr:0xABCD0 ~size:4 ~value:7;
  let r = Log_record.decode_from mem ~paddr:0x2000 in
  check "on-chip logs virtual address" 0xABCD0 r.Log_record.addr

let test_logger_page_crossing_fault () =
  (* Fill the log page to the brim, then one more record must fault and be
     redirected to the spare page. *)
  let clock, mem, logger, perf =
    logger_fixture ~data_page:1 ~log_page:2 ~spare_pages:[ 3 ] ()
  in
  let records_per_page = Addr.page_size / Log_record.bytes in
  for i = 0 to records_per_page - 1 do
    clock := !clock + 50;
    Logger.snoop logger ~paddr:0x1000 ~vaddr:0x1000 ~size:4 ~value:i
  done;
  check "entry invalid after page crossing" 0
    (match Logger.log_entry logger ~index:0 with None -> 0 | Some _ -> 1);
  clock := !clock + 50;
  Logger.snoop logger ~paddr:0x1000 ~vaddr:0x1000 ~size:4 ~value:9999;
  check "log-addr fault taken" 1 perf.Perf.logging_faults_log_addr;
  check "no records lost" 0 perf.Perf.log_records_lost;
  let r = Log_record.decode_from mem ~paddr:0x3000 in
  check "record continued on spare page" 9999 r.Log_record.value

let test_logger_pmt_miss_drop () =
  let clock, _, logger, perf = logger_fixture ~data_page:1 ~log_page:2 () in
  clock := 10;
  Logger.snoop logger ~paddr:0x5000 ~vaddr:0x5000 ~size:4 ~value:1;
  check "pmt fault" 1 perf.Perf.logging_faults_pmt;
  check "record lost" 1 perf.Perf.log_records_lost;
  check "no record" 0 perf.Perf.log_records

let test_logger_pmt_conflict_eviction () =
  let clock = ref 0 in
  let perf = Perf.create () in
  let mem = Physmem.create ~frames:8 in
  let bus = Bus.create perf in
  (* Tiny PMT (4 entries) so pages 1 and 5 conflict. *)
  let logger = Logger.create ~pmt_bits:2 ~clock mem bus perf in
  Logger.load_pmt logger ~page:1 ~log_index:0;
  Alcotest.(check (option int)) "page 1 mapped" (Some 0)
    (Logger.pmt_lookup logger ~page:1);
  Logger.load_pmt logger ~page:5 ~log_index:1;
  Alcotest.(check (option int)) "page 1 evicted" None
    (Logger.pmt_lookup logger ~page:1);
  Alcotest.(check (option int)) "page 5 mapped" (Some 1)
    (Logger.pmt_lookup logger ~page:5)

let test_logger_overload () =
  (* Logged writes issued back-to-back (no compute between them) must
     eventually overload the FIFOs and charge the big suspension penalty. *)
  let clock, _, logger, perf =
    logger_fixture ~data_page:1 ~log_page:2
      ~spare_pages:[ 3; 4; 5; 6; 7; 8; 9; 10; 11 ] ()
  in
  for i = 0 to 999 do
    clock := !clock + Cycles.word_write_through_total;
    Logger.snoop logger ~paddr:0x1000 ~vaddr:0x1000 ~size:4 ~value:i
  done;
  check_bool "overloaded" true (perf.Perf.overloads >= 1);
  check_bool "overload penalty exceeds 15k cycles" true
    (perf.Perf.overload_cycles > 15_000)

let test_logger_no_overload_with_compute () =
  (* One logged write per 100 compute cycles is far below the logger's
     service rate; no overload may occur (Section 4.5.3). *)
  let clock, _, logger, perf =
    logger_fixture ~data_page:1 ~log_page:2
      ~spare_pages:[ 3; 4; 5; 6; 7; 8 ] ()
  in
  for i = 0 to 999 do
    clock := !clock + 100 + Cycles.word_write_through_total;
    Logger.snoop logger ~paddr:0x1000 ~vaddr:0x1000 ~size:4 ~value:i
  done;
  check "no overloads" 0 perf.Perf.overloads

let test_logger_disabled () =
  let clock, _, logger, perf = logger_fixture ~data_page:1 ~log_page:2 () in
  Logger.set_enabled logger false;
  clock := 10;
  Logger.snoop logger ~paddr:0x1000 ~vaddr:0x1000 ~size:4 ~value:1;
  check "no records when disabled" 0 perf.Perf.log_records;
  check "no faults when disabled" 0 perf.Perf.logging_faults_pmt

let test_logger_indexed_mode () =
  let clock, mem, logger, perf = logger_fixture ~data_page:1 ~log_page:2 () in
  Logger.set_log_entry logger ~index:0 ~mode:Logger.Indexed ~addr:0x2000;
  for i = 0 to 4 do
    clock := !clock + 50;
    Logger.snoop logger ~paddr:0x1000 ~vaddr:0x1000 ~size:4 ~value:(i * 11)
  done;
  check "five records" 5 perf.Perf.log_records;
  for i = 0 to 4 do
    check
      (Printf.sprintf "indexed value %d" i)
      (i * 11)
      (Physmem.read_word mem (0x2000 + (i * 4)))
  done

let test_logger_direct_mapped_mode () =
  let clock, mem, logger, _ = logger_fixture ~data_page:1 ~log_page:2 () in
  Logger.set_log_entry logger ~index:0 ~mode:Logger.Direct_mapped ~addr:0x2000;
  clock := 50;
  Logger.snoop logger ~paddr:0x1abc ~vaddr:0x1abc ~size:4 ~value:0x42;
  check "value at same offset in log page" 0x42
    (Physmem.read_word mem 0x2abc);
  (* the entry does not advance or invalidate in direct-mapped mode *)
  (match Logger.log_entry logger ~index:0 with
  | Some (Logger.Direct_mapped, addr) -> check "entry stable" 0x2000 addr
  | _ -> Alcotest.fail "entry should remain valid")

(* {1 Machine integration} *)

let machine_fixture ?hw () =
  let m = Machine.create ?hw ~frames:64 () in
  (* identity kernel: page 1 logged to index 0, log in page 2, extension
     pages 3.. allocated on demand *)
  let next_log_page = ref 3 in
  let logger = Machine.logger m in
  Logger.load_pmt logger ~page:1 ~log_index:0;
  Logger.set_log_entry logger ~index:0 ~mode:Logger.Normal
    ~addr:(Addr.addr_of_page 2);
  Logger.set_fault_handler logger (function
    | Logger.Pmt_miss _ -> Logger.Drop
    | Logger.Log_addr_invalid { log_index } ->
      let p = !next_log_page in
      incr next_log_page;
      Logger.set_log_entry logger ~index:log_index ~mode:Logger.Normal
        ~addr:(Addr.addr_of_page p);
      Logger.Fixed);
  m

let test_machine_logged_write_data_and_record () =
  let m = machine_fixture () in
  Machine.compute m 100;
  Machine.write m ~paddr:0x1040 ~size:4 ~mode:Machine.Write_through
    ~logged:true 0x1234;
  check "data written" 0x1234 (Machine.read m ~paddr:0x1040 ~size:4);
  let r = Log_record.decode_from (Machine.mem m) ~paddr:0x2000 in
  check "record value" 0x1234 r.Log_record.value;
  check "record addr" 0x1040 r.Log_record.addr

let test_machine_logged_write_requires_write_through () =
  let m = machine_fixture () in
  Alcotest.check_raises "logged + write-back rejected"
    (Invalid_argument "Machine.write: logged pages must be write-through")
    (fun () ->
      Machine.write m ~paddr:0x1040 ~size:4 ~mode:Machine.Write_back
        ~logged:true 1)

let test_machine_write_through_slower_than_cached () =
  let m = machine_fixture () in
  (* unlogged cached writes to page 4 *)
  let t0 = Machine.time m in
  for i = 0 to 63 do
    Machine.write m ~paddr:(0x4000 + (i * 4)) ~size:4
      ~mode:Machine.Write_back ~logged:false i
  done;
  let cached = Machine.time m - t0 in
  let t1 = Machine.time m in
  for i = 0 to 63 do
    Machine.write m ~paddr:(0x1000 + (i * 4)) ~size:4
      ~mode:Machine.Write_through ~logged:true i
  done;
  let logged = Machine.time m - t1 in
  check_bool
    (Printf.sprintf "logged (%d) slower than cached (%d)" logged cached)
    true
    (logged > cached)

let test_machine_bcopy () =
  let m = machine_fixture () in
  for i = 0 to 31 do
    Machine.write_raw m ~paddr:(0x5000 + (i * 4)) ~size:4 (i * 3)
  done;
  let t0 = Machine.time m in
  Machine.bcopy m ~src:0x5000 ~dst:0x6000 ~len:128;
  check "bcopy cost" (Cycles.bcopy_base + (32 * Cycles.bcopy_per_word))
    (Machine.time m - t0);
  for i = 0 to 31 do
    check
      (Printf.sprintf "bcopy word %d" i)
      (i * 3)
      (Machine.read_raw m ~paddr:(0x6000 + (i * 4)) ~size:4)
  done

let test_machine_deferred_copy_flow () =
  let m = machine_fixture () in
  (* page 8 is a checkpoint source for destination page 9 *)
  Machine.write_raw m ~paddr:0x8010 ~size:4 111;
  Machine.dc_map m ~dst_page:9 ~src_addr:0x8000;
  check "read-through to source" 111 (Machine.read m ~paddr:0x9010 ~size:4);
  Machine.write m ~paddr:0x9010 ~size:4 ~mode:Machine.Write_back ~logged:false
    222;
  check "read modified" 222 (Machine.read m ~paddr:0x9010 ~size:4);
  check_bool "page dirty" true (Machine.dc_page_dirty m ~dst_page:9);
  Machine.dc_reset_page m ~dst_page:9;
  check "read source after reset" 111 (Machine.read m ~paddr:0x9010 ~size:4);
  check_bool "clean after reset" false (Machine.dc_page_dirty m ~dst_page:9)

let test_machine_on_chip_no_overload () =
  let m = machine_fixture ~hw:Logger.On_chip () in
  for i = 0 to 2999 do
    Machine.write m ~paddr:(0x1000 + (i * 4 mod Addr.page_size)) ~size:4
      ~mode:Machine.Write_through ~logged:true i
  done;
  let p = Machine.perf m in
  check "no overload interrupts on-chip" 0 p.Perf.overloads;
  check "all records emitted" 3000 p.Perf.log_records

let suites =
  [
    ( "machine.addr",
      [
        Alcotest.test_case "basics" `Quick test_addr_basics;
        QCheck_alcotest.to_alcotest prop_addr_decompose;
        QCheck_alcotest.to_alcotest prop_addr_page_roundtrip;
      ] );
    ( "machine.physmem",
      [
        Alcotest.test_case "read-write" `Quick test_physmem_rw;
        Alcotest.test_case "truncation" `Quick test_physmem_truncates;
        Alcotest.test_case "allocation" `Quick test_physmem_alloc;
        Alcotest.test_case "alloc zero-fills" `Quick test_physmem_alloc_zeroed;
        Alcotest.test_case "bounds" `Quick test_physmem_bounds;
        Alcotest.test_case "blit" `Quick test_physmem_blit;
      ] );
    ( "machine.bus",
      [
        Alcotest.test_case "fcfs arbitration" `Quick test_bus_fcfs;
        Alcotest.test_case "track priority" `Quick test_bus_track_priority;
      ] );
    ( "machine.fifo",
      [
        Alcotest.test_case "drain" `Quick test_fifo_drain;
        Alcotest.test_case "overflow" `Quick test_fifo_overflow;
        Alcotest.test_case "head drain time" `Quick test_fifo_head_drain;
        Alcotest.test_case "wraparound" `Quick test_fifo_wraparound;
      ] );
    ( "machine.l1",
      [
        Alcotest.test_case "hit-miss" `Quick test_l1_hit_miss;
        Alcotest.test_case "write-through timing" `Quick
          test_l1_write_through_timing;
        Alcotest.test_case "dirty eviction" `Quick
          test_l1_write_back_dirty_eviction;
        Alcotest.test_case "invalidate page" `Quick test_l1_invalidate_page;
      ] );
    ( "machine.deferred-cache",
      [
        Alcotest.test_case "read redirection" `Quick test_dc_read_redirect;
        Alcotest.test_case "write merges line" `Quick test_dc_write_merges_line;
        Alcotest.test_case "dirty and reset" `Quick test_dc_dirty_and_reset;
        Alcotest.test_case "unmap" `Quick test_dc_unmap;
      ] );
    ( "machine.log-record",
      [
        Alcotest.test_case "roundtrip" `Quick test_log_record_roundtrip;
        QCheck_alcotest.to_alcotest prop_log_record_roundtrip;
      ] );
    ( "machine.logger",
      [
        Alcotest.test_case "single record" `Quick test_logger_single_record;
        Alcotest.test_case "sequential records" `Quick
          test_logger_sequential_records;
        Alcotest.test_case "on-chip virtual addresses" `Quick
          test_logger_virtual_addresses_on_chip;
        Alcotest.test_case "page crossing fault" `Quick
          test_logger_page_crossing_fault;
        Alcotest.test_case "pmt miss drops" `Quick test_logger_pmt_miss_drop;
        Alcotest.test_case "pmt conflict eviction" `Quick
          test_logger_pmt_conflict_eviction;
        Alcotest.test_case "overload" `Quick test_logger_overload;
        Alcotest.test_case "no overload with compute" `Quick
          test_logger_no_overload_with_compute;
        Alcotest.test_case "disabled" `Quick test_logger_disabled;
        Alcotest.test_case "indexed mode" `Quick test_logger_indexed_mode;
        Alcotest.test_case "direct-mapped mode" `Quick
          test_logger_direct_mapped_mode;
      ] );
    ( "machine.integration",
      [
        Alcotest.test_case "logged write data+record" `Quick
          test_machine_logged_write_data_and_record;
        Alcotest.test_case "logged requires write-through" `Quick
          test_machine_logged_write_requires_write_through;
        Alcotest.test_case "write-through slower than cached" `Quick
          test_machine_write_through_slower_than_cached;
        Alcotest.test_case "bcopy" `Quick test_machine_bcopy;
        Alcotest.test_case "deferred copy flow" `Quick
          test_machine_deferred_copy_flow;
        Alcotest.test_case "on-chip no overload" `Quick
          test_machine_on_chip_no_overload;
      ] );
  ]
