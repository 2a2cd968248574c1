open Lvm_machine
open Lvm_vm
open Lvm_fault

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* {1 Plan engine} *)

let hit plan site cycle = Plan.check plan ~site ~cycle

let test_plan_at_cycle () =
  let p =
    Plan.create
      [ { Plan.site = Fault.Cpu; trigger = Plan.At_cycle 100;
          fault = Fault.Crash } ]
  in
  check_bool "before threshold" true (hit p Fault.Cpu 50 = None);
  check_bool "wrong site ignored" true (hit p Fault.Ramdisk_write 500 = None);
  check_bool "fires at first boundary >= n" true
    (hit p Fault.Cpu 130 = Some Fault.Crash);
  (* one-shot: disarmed afterwards, so recovery cannot re-crash *)
  check_bool "disarmed afterwards" true (hit p Fault.Cpu 200 = None);
  check "occurrences counted per site" 3 (Plan.occurrences p ~site:Fault.Cpu);
  check "injected once" 1 (Plan.injected_count p)

let test_plan_at_count_and_every () =
  let p =
    Plan.create
      [ { Plan.site = Fault.Ramdisk_write; trigger = Plan.At_count 3;
          fault = Fault.Failed_write };
        { Plan.site = Fault.Log_dma; trigger = Plan.Every 2;
          fault = Fault.Dma_fail } ]
  in
  for i = 1 to 5 do
    let got = hit p Fault.Ramdisk_write (i * 10) in
    check_bool
      (Printf.sprintf "at_count occurrence %d" i)
      (i = 3)
      (got = Some Fault.Failed_write)
  done;
  let fired = ref 0 in
  for i = 1 to 6 do
    if hit p Fault.Log_dma i = Some Fault.Dma_fail then incr fired
  done;
  check "every-2 fires on 2nd, 4th, 6th" 3 !fired

let test_plan_declaration_order () =
  (* two injections at the same site and occurrence: the first declared
     wins, the second is not consumed *)
  let p =
    Plan.create
      [ { Plan.site = Fault.Cpu; trigger = Plan.At_count 1;
          fault = Fault.Dma_fail };
        { Plan.site = Fault.Cpu; trigger = Plan.At_count 2;
          fault = Fault.Fifo_overrun } ]
  in
  check_bool "first declared wins" true (hit p Fault.Cpu 1 = Some Fault.Dma_fail);
  check_bool "second fires next occurrence" true
    (hit p Fault.Cpu 2 = Some Fault.Fifo_overrun)

let test_plan_probability_deterministic () =
  let drive seed =
    let p =
      Plan.create ~seed
        [ { Plan.site = Fault.Cpu; trigger = Plan.With_probability 0.3;
            fault = Fault.Crash } ]
    in
    let fired = ref [] in
    for i = 1 to 200 do
      match Plan.check p ~site:Fault.Cpu ~cycle:i with
      | Some _ -> fired := i :: !fired
      | None -> ()
    done;
    (!fired, Plan.trace p)
  in
  let a, ta = drive 7 and b, tb = drive 7 in
  check_bool "same seed, same firings" true (a = b);
  check_str "same seed, same trace" ta tb;
  let c, _ = drive 8 in
  check_bool "some firings at p=0.3" true (List.length a > 10);
  check_bool "different seed, different firings" true (a <> c)

(* Satellite: occurrence accounting on the replication transport sites.
   Every transport fault kind is schedulable at [Net_frame]/[Net_ack],
   observable through [Plan.injected] with the right site and kind, and
   the probabilistic mix is deterministic under a fixed seed. *)
let test_plan_transport_sites () =
  let p =
    Plan.create
      [ { Plan.site = Fault.Net_frame; trigger = Plan.At_count 1;
          fault = Fault.Net_drop };
        { Plan.site = Fault.Net_frame; trigger = Plan.At_count 2;
          fault = Fault.Net_delay { ticks = 3 } };
        { Plan.site = Fault.Net_frame; trigger = Plan.At_count 3;
          fault = Fault.Net_dup };
        { Plan.site = Fault.Net_frame; trigger = Plan.At_count 4;
          fault = Fault.Net_reorder };
        { Plan.site = Fault.Net_ack; trigger = Plan.At_count 2;
          fault = Fault.Net_drop } ]
  in
  check_bool "frame occurrence 1 drops" true
    (hit p Fault.Net_frame 10 = Some Fault.Net_drop);
  check_bool "frame occurrence 2 delays" true
    (hit p Fault.Net_frame 11 = Some (Fault.Net_delay { ticks = 3 }));
  check_bool "ack occurrence 1 clean" true (hit p Fault.Net_ack 11 = None);
  check_bool "frame occurrence 3 duplicates" true
    (hit p Fault.Net_frame 12 = Some Fault.Net_dup);
  check_bool "frame occurrence 4 reorders" true
    (hit p Fault.Net_frame 13 = Some Fault.Net_reorder);
  check_bool "ack occurrence 2 drops" true
    (hit p Fault.Net_ack 14 = Some Fault.Net_drop);
  check "frame occurrences counted" 4
    (Plan.occurrences p ~site:Fault.Net_frame);
  check "ack occurrences counted" 2 (Plan.occurrences p ~site:Fault.Net_ack);
  check "five injections recorded" 5 (Plan.injected_count p);
  let sites = List.map (fun r -> r.Plan.at_site) (Plan.injected p) in
  check "frame injections attributed" 4
    (List.length (List.filter (( = ) Fault.Net_frame) sites));
  check "ack injections attributed" 1
    (List.length (List.filter (( = ) Fault.Net_ack) sites));
  check_str "site names" "net_frame/net_ack"
    (Fault.site_name Fault.Net_frame ^ "/" ^ Fault.site_name Fault.Net_ack)

let test_plan_transport_probability_deterministic () =
  let drive seed =
    let p =
      Plan.create ~seed
        [ { Plan.site = Fault.Net_frame; trigger = Plan.With_probability 0.25;
            fault = Fault.Net_drop };
          { Plan.site = Fault.Net_ack; trigger = Plan.With_probability 0.25;
            fault = Fault.Net_dup } ]
    in
    let log = Buffer.create 256 in
    for i = 1 to 300 do
      let site = if i mod 2 = 0 then Fault.Net_frame else Fault.Net_ack in
      match Plan.check p ~site ~cycle:i with
      | Some k -> Buffer.add_string log
          (Printf.sprintf "%d:%s " i (Fault.kind_name k))
      | None -> ()
    done;
    Buffer.contents log
  in
  check_str "same seed, same transport fault stream" (drive 424242)
    (drive 424242);
  check_bool "different seed, different stream" true
    (drive 424242 <> drive 424243);
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let s = drive 424242 in
  check_bool "drops fire" true (contains s "net_drop");
  check_bool "dups fire" true (contains s "net_dup")

let test_plan_validation () =
  Alcotest.check_raises "non-positive threshold"
    (Invalid_argument "Plan.create: trigger threshold must be > 0") (fun () ->
      ignore
        (Plan.create
           [ { Plan.site = Fault.Cpu; trigger = Plan.At_count 0;
               fault = Fault.Crash } ]));
  Alcotest.check_raises "probability out of range"
    (Invalid_argument "Plan.create: probability must be in [0,1]") (fun () ->
      ignore
        (Plan.create
           [ { Plan.site = Fault.Cpu; trigger = Plan.With_probability 1.5;
               fault = Fault.Crash } ]))

let test_plan_trace_and_obs () =
  let obs = Lvm_obs.Ctx.create () in
  let p =
    Plan.create
      [ { Plan.site = Fault.Log_dma; trigger = Plan.At_count 2;
          fault = Fault.Dma_fail } ]
  in
  Plan.set_obs p obs;
  ignore (hit p Fault.Log_dma 10);
  ignore (hit p Fault.Log_dma 25);
  check_str "trace line" "cycle=25 site=log_dma kind=dma_fail\n" (Plan.trace p);
  (match Plan.injected p with
  | [ { Plan.at_cycle; at_site; what } ] ->
    check "record cycle" 25 at_cycle;
    check_bool "record site" true (at_site = Fault.Log_dma);
    check_bool "record kind" true (what = Fault.Dma_fail)
  | _ -> Alcotest.fail "expected exactly one injection record");
  check "obs counter bumped" 1
    (Lvm_obs.Snapshot.get (Lvm_obs.Ctx.snapshot obs) "fault.injected");
  let events =
    List.filter
      (fun { Lvm_obs.Trace.event; _ } ->
        match event with Lvm_obs.Event.Fault_injected _ -> true | _ -> false)
      (Lvm_obs.Trace.entries (Lvm_obs.Ctx.trace obs))
  in
  check "one fault_injected event" 1 (List.length events)

(* {1 Machine-level crash injection} *)

let test_machine_crash_at () =
  let m = Machine.create ~frames:16 () in
  Machine.set_fault_plan m (Some (Plan.crash_at 500));
  let crashed_at = ref (-1) in
  (try
     for i = 0 to 1000 do
       Machine.compute m 10;
       ignore (Machine.read m ~paddr:(0x1000 + (i mod 64) * 4) ~size:4)
     done
   with Fault.Crashed { cycle; site } ->
     crashed_at := cycle;
     check_bool "crash at cpu site" true (site = Fault.Cpu));
  check_bool "crashed" true (!crashed_at >= 500);
  check_bool "crashed promptly" true (!crashed_at < 600);
  (* one-shot: post-crash (recovery) work proceeds on the same machine *)
  Machine.compute m 1000;
  check_bool "no re-crash after disarm" true (Machine.time m > !crashed_at)

let logged_machine () =
  let m = Machine.create ~frames:64 () in
  let logger = Machine.logger m in
  let next_log_page = ref 3 in
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

let settle logger =
  while Logger.busy logger do
    Logger.flush logger
  done

let test_logger_dma_fail () =
  let m = logged_machine () in
  Machine.set_fault_plan m
    (Some
       (Plan.create
          [ { Plan.site = Fault.Log_dma; trigger = Plan.At_count 2;
              fault = Fault.Dma_fail } ]));
  for i = 0 to 3 do
    let paddr = 0x1000 + (i * 4) in
    Machine.write m ~paddr ~vaddr:paddr ~size:4
      ~mode:Machine.Write_through ~logged:true (100 + i)
  done;
  settle (Machine.logger m);
  let p = Machine.perf m in
  check "one record lost" 1 p.Perf.log_records_lost;
  check "other records emitted" 3 p.Perf.log_records

(* {1 WAL fault injection and recovery (tentpole acceptance)} *)

let wal_fixture () =
  let k = Kernel.create () in
  let d = Lvm_rvm.Ramdisk.create k ~size:4096 in
  (k, d)

let payload v = Bytes.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))

(* one committed txn (off 0 <- 0x11223344), then one uncommitted data
   record for txn 2 (off 8 <- v2) *)
let committed_then_open d ~v2 =
  Lvm_rvm.Ramdisk.wal_append d
    (Lvm_rvm.Ramdisk.Data { txn = 1; off = 0; bytes = payload 0x11223344 });
  Lvm_rvm.Ramdisk.wal_append d (Lvm_rvm.Ramdisk.Commit { txn = 1 });
  Lvm_rvm.Ramdisk.wal_append d
    (Lvm_rvm.Ramdisk.Data { txn = 2; off = 8; bytes = payload v2 })

let word_of image off =
  let b = Bytes.sub image off 4 in
  Char.code (Bytes.get b 0)
  lor (Char.code (Bytes.get b 1) lsl 8)
  lor (Char.code (Bytes.get b 2) lsl 16)
  lor (Char.code (Bytes.get b 3) lsl 24)

let test_wal_torn_tail_truncated () =
  let k, d = wal_fixture () in
  committed_then_open d ~v2:0x5A5A5A5A;
  Machine.set_fault_plan (Kernel.machine k)
    (Some
       (Plan.create
          [ { Plan.site = Fault.Ramdisk_write; trigger = Plan.At_count 1;
              fault = Fault.Torn_write { keep = 9 } } ]));
  (* the next append tears mid-record and the machine dies *)
  (match
     Lvm_rvm.Ramdisk.wal_append d
       (Lvm_rvm.Ramdisk.Data { txn = 2; off = 12; bytes = payload 0x77 })
   with
  | () -> Alcotest.fail "torn write should crash"
  | exception Fault.Crashed { site; _ } ->
    check_bool "crashed at ramdisk_write" true (site = Fault.Ramdisk_write));
  Machine.set_fault_plan (Kernel.machine k) None;
  let before = Lvm_rvm.Ramdisk.log_bytes d in
  let image, r = Lvm_rvm.Ramdisk.recover d in
  check_bool "torn tail detected" true (r.Lvm_rvm.Ramdisk.torn <> None);
  check_bool "torn bytes truncated" true (r.Lvm_rvm.Ramdisk.truncated_bytes > 0);
  check "intact records survive" 3 r.Lvm_rvm.Ramdisk.scanned;
  check "one committed txn" 1 r.Lvm_rvm.Ramdisk.committed;
  check "committed record replayed" 1 r.Lvm_rvm.Ramdisk.replayed;
  check "committed value durable" 0x11223344 (word_of image 0);
  check "uncommitted value invisible" 0 (word_of image 8);
  check "torn record not replayed" 0 (word_of image 12);
  check_bool "log physically repaired" true
    (Lvm_rvm.Ramdisk.log_bytes d < before);
  (* recovery is idempotent: a second scan finds a clean log *)
  let image2, r2 = Lvm_rvm.Ramdisk.recover d in
  check_bool "second recovery clean" true (r2.Lvm_rvm.Ramdisk.torn = None);
  check "second recovery truncates nothing" 0
    r2.Lvm_rvm.Ramdisk.truncated_bytes;
  check_bool "second recovery same image" true (image = image2)

let test_wal_bit_flip_detected () =
  let k, d = wal_fixture () in
  committed_then_open d ~v2:0x5A5A5A5A;
  Machine.set_fault_plan (Kernel.machine k)
    (Some
       (Plan.create
          [ { Plan.site = Fault.Ramdisk_write; trigger = Plan.At_count 1;
              fault = Fault.Bit_flip { byte = 26; bit = 3 } } ]));
  Lvm_rvm.Ramdisk.wal_append d
    (Lvm_rvm.Ramdisk.Data { txn = 2; off = 12; bytes = payload 0x77 });
  Machine.set_fault_plan (Kernel.machine k) None;
  let image, r = Lvm_rvm.Ramdisk.recover d in
  check_str "checksum catches the flip" "checksum mismatch"
    (match r.Lvm_rvm.Ramdisk.torn with Some s -> s | None -> "no");
  check_bool "corrupt record truncated" true
    (r.Lvm_rvm.Ramdisk.truncated_bytes > 0);
  check "corrupt record not replayed" 0 (word_of image 12);
  check "committed value durable" 0x11223344 (word_of image 0)

let test_wal_failed_write_lost () =
  let k, d = wal_fixture () in
  Machine.set_fault_plan (Kernel.machine k)
    (Some
       (Plan.create
          [ { Plan.site = Fault.Ramdisk_write; trigger = Plan.At_count 1;
              fault = Fault.Failed_write } ]));
  committed_then_open d ~v2:0x5A5A5A5A;
  Machine.set_fault_plan (Kernel.machine k) None;
  (* record 1 (the data record of txn 1) silently vanished; the log is
     otherwise intact, so recovery sees a clean but shorter log *)
  check "two records on disk" 2 (Lvm_rvm.Ramdisk.entry_count d);
  let image, r = Lvm_rvm.Ramdisk.recover d in
  check_bool "no torn tail" true (r.Lvm_rvm.Ramdisk.torn = None);
  check "lost record not replayed" 0 (word_of image 0)

(* {1 RLVM crash consistency and log exhaustion} *)

let rlvm_fixture ?log_pages ?max_log_pages ~size () =
  let k = Kernel.create () in
  let sp = Kernel.create_space k in
  let d = Lvm_rvm.Rlvm.Config.default in
  let config =
    { d with
      Lvm_rvm.Rlvm.Config.log_pages =
        Option.value log_pages ~default:d.Lvm_rvm.Rlvm.Config.log_pages;
      max_log_pages }
  in
  let r = Lvm_rvm.Rlvm.make config k sp ~size in
  (k, r)

let test_rlvm_crash_mid_txn () =
  let k, r = rlvm_fixture ~size:4096 () in
  Lvm_rvm.Rlvm.begin_txn r;
  Lvm_rvm.Rlvm.write_word r ~off:0 7;
  Lvm_rvm.Rlvm.commit r;
  let crash_from = Kernel.time k + 1 in
  Machine.set_fault_plan (Kernel.machine k) (Some (Plan.crash_at crash_from));
  (match
     Lvm_rvm.Rlvm.begin_txn r;
     Lvm_rvm.Rlvm.write_word r ~off:4 9;
     Lvm_rvm.Rlvm.write_word r ~off:8 11
   with
  | () -> Alcotest.fail "expected a crash"
  | exception Fault.Crashed _ -> ());
  Machine.set_fault_plan (Kernel.machine k) None;
  let report = Lvm_rvm.Rlvm.recover r in
  check "committed txn recovered" 1 report.Lvm_rvm.Ramdisk.committed;
  check "committed word durable" 7 (Lvm_rvm.Rlvm.read_word r ~off:0);
  check "uncommitted word invisible" 0 (Lvm_rvm.Rlvm.read_word r ~off:4);
  check "uncommitted word invisible (2)" 0 (Lvm_rvm.Rlvm.read_word r ~off:8);
  (* store usable again after recovery *)
  Lvm_rvm.Rlvm.begin_txn r;
  Lvm_rvm.Rlvm.write_word r ~off:4 13;
  Lvm_rvm.Rlvm.commit r;
  check "post-recovery commit works" 13 (Lvm_rvm.Rlvm.read_word r ~off:4)

let test_rlvm_backpressure_extends_log () =
  (* minimal provision, generous ceiling: a transaction whose log traffic
     overflows the initial provision extends the log instead of absorbing *)
  let _k, r = rlvm_fixture ~log_pages:5 ~max_log_pages:12 ~size:4096 () in
  let initial = Segment.pages (Lvm_rvm.Rlvm.log_segment r) in
  Lvm_rvm.Rlvm.begin_txn r;
  for i = 0 to 1999 do
    Lvm_rvm.Rlvm.write_word r ~off:((i mod 1024) * 4) i
  done;
  Lvm_rvm.Rlvm.commit r;
  check_bool "log extended under pressure" true
    (Segment.pages (Lvm_rvm.Rlvm.log_segment r) > initial);
  check "last value committed" 1999 (Lvm_rvm.Rlvm.read_word r ~off:(975 * 4));
  check "first-pass value committed" 1023
    (Lvm_rvm.Rlvm.read_word r ~off:(1023 * 4))

let test_rlvm_log_exhaustion_typed () =
  (* same pressure, but the ceiling equals the provision: the reservation
     fails with a typed error before any record is lost *)
  let _k, r = rlvm_fixture ~log_pages:5 ~max_log_pages:5 ~size:4096 () in
  Lvm_rvm.Rlvm.begin_txn r;
  let raised = ref false in
  (try
     for i = 0 to 1999 do
       Lvm_rvm.Rlvm.write_word r ~off:((i mod 1024) * 4) i
     done
   with Error.Lvm_error (Error.Log_exhausted { pos; capacity; _ }) ->
     raised := true;
     check_bool "position within capacity" true (pos <= capacity));
  check_bool "typed exhaustion raised" true !raised;
  (* graceful degradation: abort releases the log, the store survives *)
  Lvm_rvm.Rlvm.abort r;
  Lvm_rvm.Rlvm.begin_txn r;
  Lvm_rvm.Rlvm.write_word r ~off:0 21;
  Lvm_rvm.Rlvm.commit r;
  check "store usable after exhaustion" 21 (Lvm_rvm.Rlvm.read_word r ~off:0)

let test_rlvm_forced_absorption_fails_commit () =
  let k, r = rlvm_fixture ~size:4096 () in
  (* force the kernel's log-segment provisioning to report exhaustion the
     next time the log needs a page, pushing the segment into absorption *)
  Machine.set_fault_plan (Kernel.machine k)
    (Some
       (Plan.create
          [ { Plan.site = Fault.Log_segment; trigger = Plan.Every 1;
              fault = Fault.Log_exhaust } ]));
  Lvm_rvm.Rlvm.begin_txn r;
  let failed = ref false in
  (try
     (* enough traffic to fill the first log page and demand another *)
     for i = 0 to 399 do
       Lvm_rvm.Rlvm.write_word r ~off:((i mod 1024) * 4) i
     done;
     Lvm_rvm.Rlvm.commit r
   with Error.Lvm_error (Error.Log_exhausted _) -> failed := true);
  check_bool "commit refused after absorption" true !failed;
  Machine.set_fault_plan (Kernel.machine k) None;
  Lvm_rvm.Rlvm.abort r;
  Lvm_rvm.Rlvm.begin_txn r;
  Lvm_rvm.Rlvm.write_word r ~off:0 5;
  Lvm_rvm.Rlvm.commit r;
  check "store recovers after forced exhaustion" 5
    (Lvm_rvm.Rlvm.read_word r ~off:0)

let test_rlvm_torn_at_extent_seam () =
  (* a transaction whose redo stream crosses an extent seam mid-flight,
     then a torn WAL write during commit: the crash rolls the whole
     transaction back and the torn tail is truncated — the extent
     machinery adds no new failure mode *)
  let k, r = rlvm_fixture ~log_pages:8 ~max_log_pages:8 ~size:4096 () in
  Lvm_rvm.Rlvm.begin_txn r;
  for i = 0 to 1099 do
    Lvm_rvm.Rlvm.write_word r ~off:((i mod 1024) * 4) (i + 1)
  done;
  let s = Lvm_log.stats (Lvm_rvm.Rlvm.log r) in
  check_bool "stream crossed an extent seam" true (s.Lvm_log.switches >= 1);
  Machine.set_fault_plan (Kernel.machine k)
    (Some
       (Plan.create
          [ { Plan.site = Fault.Ramdisk_write; trigger = Plan.At_count 50;
              fault = Fault.Torn_write { keep = 7 } } ]));
  (match Lvm_rvm.Rlvm.commit r with
  | () -> Alcotest.fail "torn write should crash the commit"
  | exception Fault.Crashed { site; _ } ->
    check_bool "crashed at ramdisk_write" true (site = Fault.Ramdisk_write));
  Machine.set_fault_plan (Kernel.machine k) None;
  let report = Lvm_rvm.Rlvm.recover r in
  check_bool "torn tail truncated" true
    (report.Lvm_rvm.Ramdisk.truncated_bytes > 0);
  check "no transaction committed" 0 report.Lvm_rvm.Ramdisk.committed;
  for i = 0 to 1023 do
    if Lvm_rvm.Rlvm.read_word r ~off:(i * 4) <> 0 then
      Alcotest.fail
        (Printf.sprintf "uncommitted word %d visible after recovery" i)
  done;
  Lvm_rvm.Rlvm.begin_txn r;
  Lvm_rvm.Rlvm.write_word r ~off:0 9;
  Lvm_rvm.Rlvm.commit r;
  check "store usable after seam crash" 9 (Lvm_rvm.Rlvm.read_word r ~off:0)

let test_rlvm_group_commit_recovery () =
  let k = Kernel.create () in
  let sp = Kernel.create_space k in
  let r = Lvm_rvm.Rlvm.make { Lvm_rvm.Rlvm.Config.default with group = 4 } k sp ~size:4096 in
  check "group recorded" 4 (Lvm_rvm.Rlvm.group r);
  for i = 0 to 5 do
    Lvm_rvm.Rlvm.begin_txn r;
    Lvm_rvm.Rlvm.write_word r ~off:(i * 4) (100 + i);
    Lvm_rvm.Rlvm.commit r
  done;
  check "two commits pending behind the force" 2
    (Lvm_rvm.Rlvm.pending_commits r);
  (* crash: the unforced batch rolls back to the last forced state *)
  let report = Lvm_rvm.Rlvm.recover r in
  check "only the forced batch replays" 4 report.Lvm_rvm.Ramdisk.committed;
  for i = 0 to 3 do
    check
      (Printf.sprintf "forced commit %d durable" i)
      (100 + i)
      (Lvm_rvm.Rlvm.read_word r ~off:(i * 4))
  done;
  for i = 4 to 5 do
    check
      (Printf.sprintf "unforced commit %d rolled back" i)
      0
      (Lvm_rvm.Rlvm.read_word r ~off:(i * 4))
  done;
  (* redo the lost tail and flush: the whole batch becomes durable *)
  for i = 4 to 5 do
    Lvm_rvm.Rlvm.begin_txn r;
    Lvm_rvm.Rlvm.write_word r ~off:(i * 4) (100 + i);
    Lvm_rvm.Rlvm.commit r
  done;
  check_bool "commits pending again" true (Lvm_rvm.Rlvm.pending_commits r > 0);
  Lvm_rvm.Rlvm.flush_commits r;
  check "flush drains the batch" 0 (Lvm_rvm.Rlvm.pending_commits r);
  ignore (Lvm_rvm.Rlvm.recover r);
  for i = 0 to 5 do
    check
      (Printf.sprintf "word %d durable after flush" i)
      (100 + i)
      (Lvm_rvm.Rlvm.read_word r ~off:(i * 4))
  done

(* {1 Logger overload recovery (satellite)} *)

let overload_events m =
  List.fold_left
    (fun (enters, exits, suspended) { Lvm_obs.Trace.event; _ } ->
      match event with
      | Lvm_obs.Event.Overload_enter _ -> (enters + 1, exits, suspended)
      | Lvm_obs.Event.Overload_exit { suspended = s } ->
        (enters, exits + 1, suspended + s)
      | _ -> (enters, exits, suspended))
    (0, 0, 0)
    (Lvm_obs.Trace.entries (Lvm_obs.Ctx.trace (Machine.obs m)))

let test_overload_recovery () =
  let m = logged_machine () in
  (* back-to-back logged writes with no compute: the FIFO fills faster
     than DMA drains it and the overload interrupt fires (Fig. 11, c=0) *)
  for i = 0 to 1499 do
    let paddr = 0x1000 + (i * 4 mod Addr.page_size) in
    Machine.write m ~paddr ~vaddr:paddr ~size:4
      ~mode:Machine.Write_through ~logged:true i
  done;
  let p = Machine.perf m in
  check_bool "overloads occurred" true (p.Perf.overloads > 0);
  (* recovery: the interrupt drains the FIFOs, so occupancy is back
     below the threshold as soon as the burst ends *)
  check_bool "occupancy back below threshold" true
    (Logger.occupancy (Machine.logger m) < Cycles.logger_fifo_threshold);
  let enters, exits, suspended = overload_events m in
  check "every overload entered is exited" enters exits;
  check "Perf.overloads agrees with trace" p.Perf.overloads enters;
  (* each overload's suspension is charged exactly once: the perf total
     is the sum of the per-event suspensions *)
  check "overload cycles charged once" suspended p.Perf.overload_cycles;
  check_bool "suspension includes kernel overhead" true
    (p.Perf.overload_cycles >= p.Perf.overloads * Cycles.overload_suspend);
  (* the obs snapshot view and the raw perf record agree *)
  check "snapshot agrees with perf" p.Perf.overloads
    (Lvm_obs.Snapshot.get (Machine.snapshot m) "overloads")

let test_forced_fifo_overrun () =
  let m = logged_machine () in
  Machine.set_fault_plan m
    (Some
       (Plan.create
          [ { Plan.site = Fault.Logger_admit; trigger = Plan.At_count 1;
              fault = Fault.Fifo_overrun } ]));
  (* a single logged write: occupancy is far below the threshold, but the
     injected overrun forces the overload interrupt anyway *)
  Machine.write m ~paddr:0x1000 ~vaddr:0x1000
    ~size:4 ~mode:Machine.Write_through
    ~logged:true 1;
  let p = Machine.perf m in
  check "forced overload taken" 1 p.Perf.overloads;
  check_bool "suspension charged" true
    (p.Perf.overload_cycles >= Cycles.overload_suspend);
  check "injection traced" 1
    (Lvm_obs.Snapshot.get (Machine.snapshot m) "fault.injected");
  (* recovered: the next write admits normally *)
  Machine.write m ~paddr:0x1004 ~vaddr:0x1004
    ~size:4 ~mode:Machine.Write_through
    ~logged:true 2;
  check "no further overloads" 1 p.Perf.overloads

(* {1 Golden sweep traces}

   One row per crash-sweep subject, at the sizes the per-subject suites
   use. The digest pins each trace byte for byte: a change to a sweep's
   schedule, workload, recovery or checker output shows up here, and so
   does any run-to-run nondeterminism. [torn] says whether the row must
   see a torn tail (group commit drops unforced torn bytes before the
   scan, so the FAMS row at group 2 sees none). *)

let golden =
  let open Lvm_tpc.Crash_sweep in
  [ ("tpca", (fun () -> run ~seed:11 ~txns:4 ~points:12 ~torn_points:4 ()),
     16, true, "8d298c39a38c37f6c0b1175292df3506");
    ("store",
     (fun () -> run ~seed:5 ~txns:6 ~points:40 ~torn_points:8 ~shards:2 ()),
     48, true, "c70a8c81ded934dff658226351032ba6");
    ("fams",
     (fun () ->
       run_fams ~seed:5 ~snaps:5 ~writes:4 ~points:12 ~torn_points:6
         ~force_points:3 ~group:2 ~regions:2 ()),
     21, false, "fdb16c0c959c546020fd7bd1cdc8dd75");
    ("split",
     (fun () ->
       run_split ~seed:5 ~points:24 ~torn_points:4 ~cutover_points:2
         ~shards:2 ()),
     30, true, "9fbf3e8baff5fa0ed40a8cf6e169cda2");
    ("repl", (fun () -> run_repl ~txns:6 ~kill_points:8 ~fault_only:2 ()),
     10, true, "bd7c9026a07ce45b2e68ea78b72e0efd") ]

let test_golden_traces () =
  List.iter
    (fun (name, sweep, points, torn, digest) ->
      let o : Lvm_tpc.Crash_sweep.outcome = sweep () in
      Alcotest.(check (list string)) (name ^ " no violations") [] o.failures;
      check_bool (name ^ " crashes fired") true (o.crashed > 0);
      if torn then check_bool (name ^ " torn tails detected") true (o.torn > 0);
      check (name ^ " points") points o.points;
      check_str (name ^ " trace digest") digest
        (Digest.to_hex (Digest.string o.trace)))
    golden

(* The CI table's check, fed stub subjects with canned outcomes. *)
let test_sweep_check () =
  let module C = Lvm_tpc.Crash_sweep in
  let clean =
    { C.points = 4; crashed = 3; completed = 1; torn = 1; failures = [];
      trace = "t\n" }
  in
  (* [first] on the first run, [clean] on the second *)
  let problems ?(torn_required = true) name expected first =
    let runs = ref [ first; clean ] in
    let run () =
      match !runs with
      | o :: rest -> runs := rest; o
      | [] -> Alcotest.fail "check ran the sweep more than twice"
    in
    Alcotest.(check (list string)) name expected
      (snd (C.check { C.name = "stub"; run; torn_required }))
  in
  problems "clean subject passes" [] clean;
  problems "failures reported" [ "point=1: boom" ]
    { clean with failures = [ "point=1: boom" ] };
  problems "no fault fired" [ "no injected fault fired" ]
    { clean with crashed = 0 };
  problems "missing torn tail" [ "no torn tail was ever detected" ]
    { clean with torn = 0 };
  problems ~torn_required:false "torn tail optional" [] { clean with torn = 0 };
  problems "differing traces" [ "two runs produced different traces" ]
    { clean with trace = "u\n" };
  let names = List.map (fun (s : C.subject) -> s.name) C.subjects in
  check "subject names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let suites =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "at-cycle one-shot" `Quick test_plan_at_cycle;
        Alcotest.test_case "at-count and every" `Quick
          test_plan_at_count_and_every;
        Alcotest.test_case "declaration order" `Quick
          test_plan_declaration_order;
        Alcotest.test_case "seeded probability deterministic" `Quick
          test_plan_probability_deterministic;
        Alcotest.test_case "transport sites accounted" `Quick
          test_plan_transport_sites;
        Alcotest.test_case "transport probability deterministic" `Quick
          test_plan_transport_probability_deterministic;
        Alcotest.test_case "validation" `Quick test_plan_validation;
        Alcotest.test_case "trace and obs" `Quick test_plan_trace_and_obs;
      ] );
    ( "fault.machine",
      [
        Alcotest.test_case "crash at cycle" `Quick test_machine_crash_at;
        Alcotest.test_case "log DMA failure" `Quick test_logger_dma_fail;
      ] );
    ( "fault.wal",
      [
        Alcotest.test_case "torn tail truncated, not replayed" `Quick
          test_wal_torn_tail_truncated;
        Alcotest.test_case "bit flip caught by checksum" `Quick
          test_wal_bit_flip_detected;
        Alcotest.test_case "failed write lost" `Quick
          test_wal_failed_write_lost;
      ] );
    ( "fault.rlvm",
      [
        Alcotest.test_case "crash mid-transaction" `Quick
          test_rlvm_crash_mid_txn;
        Alcotest.test_case "backpressure extends log" `Quick
          test_rlvm_backpressure_extends_log;
        Alcotest.test_case "log exhaustion typed error" `Quick
          test_rlvm_log_exhaustion_typed;
        Alcotest.test_case "forced absorption fails commit" `Quick
          test_rlvm_forced_absorption_fails_commit;
        Alcotest.test_case "torn write at extent seam" `Quick
          test_rlvm_torn_at_extent_seam;
        Alcotest.test_case "group commit recovery" `Quick
          test_rlvm_group_commit_recovery;
      ] );
    ( "fault.overload",
      [
        Alcotest.test_case "overload recovery accounting" `Quick
          test_overload_recovery;
        Alcotest.test_case "forced FIFO overrun" `Quick
          test_forced_fifo_overrun;
      ] );
    ( "fault.sweep",
      [ Alcotest.test_case "golden traces" `Quick test_golden_traces;
        Alcotest.test_case "CI table check" `Quick test_sweep_check ] );
  ]
