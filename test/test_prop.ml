(* Property-based tests over a dependency-free harness.

   The harness draws every random choice from the repository's own
   splitmix64 stream ([Lvm_fault.Splitmix]) — never the global [Random]
   state — so each case is reproducible from an integer seed. The suite
   seed comes from [LVM_TEST_SEED] (deterministic default) and the case
   count from [LVM_PROP_CASES] (default 1000); a failing case is shrunk
   by halving its size parameter, re-running the identical stream, and
   reported with everything needed to replay it. *)

open Lvm_machine
module Sm = Lvm_fault.Splitmix

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( try int_of_string v with _ -> default)
  | None -> default

let cases = env_int "LVM_PROP_CASES" 1000
let suite_seed = env_int "LVM_TEST_SEED" 0x5eed

(* Run [prop] on [cases] cases. Each case derives its own seed from the
   suite seed, builds a fresh stream from it, and draws a size up to
   [max_size]; [prop rng size] signals failure by raising. On failure the
   size is halved (same stream!) until the property passes, and the
   smallest still-failing size is reported. *)
let check ?(max_size = 256) ?(cases = cases) name prop =
  let failing = ref None in
  (try
     for case = 0 to cases - 1 do
       let case_seed = (suite_seed * 1_000_003) + case in
       let size = 1 + Sm.int (Sm.create ~seed:case_seed) ~bound:max_size in
       let fails sz =
         match prop (Sm.create ~seed:(case_seed * 2 + 1)) sz with
         | () -> None
         | exception e -> Some (Printexc.to_string e)
       in
       match fails size with
       | None -> ()
       | Some msg ->
         let rec shrink sz msg =
           if sz <= 1 then (sz, msg)
           else
             match fails (sz / 2) with
             | Some msg' -> shrink (sz / 2) msg'
             | None -> (sz, msg)
         in
         failing := Some (case, case_seed, shrink size msg);
         raise Exit
     done
   with Exit -> ());
  match !failing with
  | None -> ()
  | Some (case, case_seed, (sz, msg)) ->
    Alcotest.fail
      (Printf.sprintf
         "%s: case %d failed at size %d: %s\n\
          reproduce with LVM_TEST_SEED=%d (case seed %d)"
         name case sz msg suite_seed case_seed)

let expect cond fmt = Printf.ksprintf (fun s -> if not cond then failwith s) fmt

(* {1 Log_record encode/decode round-trip} *)

let random_record rng =
  {
    Log_record.addr = Sm.int rng ~bound:0x40000000 * 4 mod 0x100000000;
    value =
      Int64.to_int (Int64.logand (Sm.next_u64 rng) 0xFFFFFFFFL);
    size = List.nth [ 1; 2; 4 ] (Sm.int rng ~bound:3);
    timestamp = Int64.to_int (Int64.logand (Sm.next_u64 rng) 0xFFFFFFFFL);
    pre_image = Sm.bool rng;
  }

let prop_log_record rng size =
  let mem = Physmem.create ~frames:1 in
  for _ = 1 to size do
    let r = random_record rng in
    (* through a byte buffer at a random position *)
    let pos = Sm.int rng ~bound:(256 - Log_record.bytes) in
    let buf = Bytes.make 256 '\xAA' in
    Log_record.encode_bytes buf ~pos r;
    let r' = Log_record.decode_bytes buf ~pos in
    expect (Log_record.equal r r') "bytes round-trip: %s <> %s"
      (Format.asprintf "%a" Log_record.pp r)
      (Format.asprintf "%a" Log_record.pp r');
    (* through simulated physical memory *)
    let paddr = Sm.int rng ~bound:(Addr.page_size - Log_record.bytes) in
    Log_record.encode_to mem ~paddr r;
    let r'' = Log_record.decode_from mem ~paddr in
    expect (Log_record.equal r r'') "physmem round-trip: %s <> %s"
      (Format.asprintf "%a" Log_record.pp r)
      (Format.asprintf "%a" Log_record.pp r'')
  done

(* {1 FIFO vs a naive list model}

   The ring buffer must agree with the obvious model: a front-first list
   drained from the head while the head's drain time has passed, refusing
   pushes beyond capacity. *)

let prop_fifo rng size =
  let cap = 1 + Sm.int rng ~bound:(max 1 size) in
  let f = Fifo.create ~capacity:cap in
  let model = ref [] (* front first *) in
  let max_drain = ref 0 in
  let now = ref 0 in
  let model_drain () =
    let rec go = function
      | d :: rest when d <= !now -> go rest
      | l -> l
    in
    model := go !model
  in
  for _ = 1 to 4 * size do
    now := !now + Sm.int rng ~bound:8;
    model_drain ();
    let occ = Fifo.occupancy f ~now:!now in
    expect (occ = List.length !model) "occupancy %d, model %d" occ
      (List.length !model);
    expect
      (Fifo.head_drain_time f
      = match !model with [] -> None | d :: _ -> Some d)
      "head_drain_time disagrees with model";
    expect
      (Fifo.last_drain_time f = !max_drain)
      "last_drain_time %d, model %d" (Fifo.last_drain_time f) !max_drain;
    let drain_time = !now + Sm.int rng ~bound:16 in
    if List.length !model < cap then begin
      Fifo.push f ~drain_time;
      model := !model @ [ drain_time ];
      if drain_time > !max_drain then max_drain := drain_time
    end
    else
      expect
        (match Fifo.push f ~drain_time with
        | () -> false
        | exception Invalid_argument _ -> true)
        "push beyond capacity %d did not raise" cap
  done

(* {1 Logger FIFO overload}

   Drive a standalone logger with back-to-back logged writes and check
   the hardware contract of Section 3.1 against the occupancy the
   threshold comparator sees: occupancy never exceeds the 819-entry
   capacity, and the overload interrupt fires on an admission exactly
   when occupancy has reached the 512-entry threshold. *)

let prop_logger_overload rng size =
  let clock = ref 0 in
  let perf = Perf.create () in
  let mem = Physmem.create ~frames:8 in
  let bus = Bus.create perf in
  let lg = Logger.create ~clock mem bus perf in
  (* data page 0 logs to a log page that the fault handler recycles
     forever, so the drain pipeline never runs out of log space *)
  let log_base = Addr.page_size in
  Logger.load_pmt lg ~page:0 ~log_index:0;
  Logger.set_log_entry lg ~index:0 ~mode:Logger.Normal ~addr:log_base;
  Logger.set_fault_handler lg (fun _ ->
      Logger.set_log_entry lg ~index:0 ~mode:Logger.Normal ~addr:log_base;
      Logger.Fixed);
  for i = 1 to 8 * size do
    clock := !clock + Sm.int rng ~bound:4;
    let occ = Logger.occupancy lg in
    expect
      (occ <= Cycles.logger_fifo_capacity)
      "occupancy %d exceeds capacity %d" occ Cycles.logger_fifo_capacity;
    let overloads = perf.Perf.overloads in
    Logger.snoop lg ~paddr:(4 * (i mod 1024)) ~vaddr:0 ~size:4 ~value:i;
    let fired = perf.Perf.overloads - overloads in
    if occ >= Cycles.logger_fifo_threshold then
      expect (fired = 1)
        "occupancy %d at threshold but no overload interrupt" occ
    else
      expect (fired = 0) "overload interrupt below threshold (occupancy %d)"
        occ;
    if fired = 1 then begin
      expect
        (Logger.occupancy lg < Cycles.logger_fifo_threshold)
        "FIFOs not drained below threshold after overload";
      expect
        (perf.Perf.overload_cycles >= Cycles.overload_suspend)
        "overload suspended fewer than %d cycles" Cycles.overload_suspend
    end
  done

(* {1 PMT vs a reference direct-mapped table}

   Random [load_pmt] / [pmt_lookup] / [invalidate_pmt] sequences, and
   snooped writes through the table, against a reference keyed by slot:
   for every [pmt_bits] and log-table size, with tags above 0, the top
   slot, and both the prototype's physical and the on-chip logger's
   virtual page keys. *)

let prop_pmt rng size =
  let bits = [| 2; 15; 20 |].(Sm.int rng ~bound:3) in
  let entries = [| 2; 64; 300 |].(Sm.int rng ~bound:3) in
  let hw = if Sm.bool rng then Logger.Prototype else Logger.On_chip in
  let clock = ref 0 in
  let perf = Perf.create () in
  let mem = Physmem.create ~frames:2 in
  let bus = Bus.create perf in
  let lg =
    Logger.create ~hw ~pmt_bits:bits ~log_entries:entries ~clock mem bus perf
  in
  for index = 0 to entries - 1 do
    Logger.set_log_entry lg ~index ~mode:Logger.Normal ~addr:Addr.page_size
  done;
  let misses = ref [] in
  Logger.set_fault_handler lg (function
    | Logger.Pmt_miss { paddr } ->
      misses := paddr :: !misses;
      Logger.Drop
    | Logger.Log_addr_invalid { log_index } ->
      Logger.set_log_entry lg ~index:log_index ~mode:Logger.Normal
        ~addr:Addr.page_size;
      Logger.Fixed);
  let mask = (1 lsl bits) - 1 in
  let pages =
    Array.init 6 (fun _ ->
        let slot =
          match Sm.int rng ~bound:3 with
          | 0 -> 0
          | 1 -> mask
          | _ -> Sm.int rng ~bound:(mask + 1)
        in
        let tag =
          match Sm.int rng ~bound:3 with
          | 0 -> 0
          | 1 -> 1
          | _ -> Sm.int rng ~bound:(1 lsl 20)
        in
        (tag lsl bits) lor slot)
  in
  let model : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  let lookup page =
    match Hashtbl.find_opt model (page land mask) with
    | Some (tag, index) when tag = page lsr bits -> Some index
    | Some _ | None -> None
  in
  for _ = 1 to size do
    let page = pages.(Sm.int rng ~bound:(Array.length pages)) in
    match Sm.int rng ~bound:4 with
    | 0 ->
      let log_index = Sm.int rng ~bound:entries in
      Logger.load_pmt lg ~page ~log_index;
      Hashtbl.replace model (page land mask) (page lsr bits, log_index)
    | 1 ->
      Logger.invalidate_pmt lg ~page;
      if lookup page <> None then Hashtbl.remove model (page land mask)
    | 2 ->
      let got = Logger.pmt_lookup lg ~page in
      expect (got = lookup page) "page 0x%x (bits %d): lookup %s, model %s"
        page bits
        (match got with Some i -> string_of_int i | None -> "miss")
        (match lookup page with Some i -> string_of_int i | None -> "miss")
    | _ ->
      (* a write whose key address lies in [page]; the other address is
         on another page, so keying by the wrong one shows *)
      let key = Addr.addr_of_page page + (4 * Sm.int rng ~bound:1024) in
      let other = Addr.addr_of_page (page + 1) in
      let paddr, vaddr =
        match hw with
        | Logger.Prototype -> (key, other)
        | Logger.On_chip -> (other, key)
      in
      let records = perf.Perf.log_records in
      misses := [];
      Logger.snoop lg ~paddr ~vaddr ~size:4 ~value:0;
      (match lookup page with
      | Some _ ->
        expect (!misses = [] && perf.Perf.log_records = records + 1)
          "page 0x%x (bits %d): mapped write not logged" page bits
      | None ->
        expect (!misses = [ key ] && perf.Perf.log_records = records)
          "page 0x%x (bits %d): unmapped write did not miss on 0x%x" page bits
          key)
  done

(* Deterministic companion: saturating the logger must actually overload
   it (the property above is vacuous at tiny sizes). *)
let test_overload_fires () =
  let clock = ref 0 in
  let perf = Perf.create () in
  let mem = Physmem.create ~frames:8 in
  let bus = Bus.create perf in
  let lg = Logger.create ~clock mem bus perf in
  Logger.load_pmt lg ~page:0 ~log_index:0;
  Logger.set_log_entry lg ~index:0 ~mode:Logger.Normal ~addr:Addr.page_size;
  Logger.set_fault_handler lg (fun _ ->
      Logger.set_log_entry lg ~index:0 ~mode:Logger.Normal
        ~addr:Addr.page_size;
      Logger.Fixed);
  for i = 1 to 2000 do
    Logger.snoop lg ~paddr:(4 * (i mod 1024)) ~vaddr:0 ~size:4 ~value:i
  done;
  Alcotest.(check bool) "overload fired" true (perf.Perf.overloads > 0)

(* {1 Bus arbiter fairness}

   Under the deterministic round-robin scheduler every CPU issues one
   transaction per round, so no transaction ever waits behind more than
   [cpus - 1] others plus one round of clock skew: the arbitration wait
   is bounded by a constant independent of the run length, every CPU is
   granted every round, and (with several CPUs) every wait cycle is spent
   behind a different CPU's transaction, i.e. it is all contention. *)

let prop_bus_fairness rng size =
  let cpus = 2 + Sm.int rng ~bound:3 in
  let max_cycles = 32 in
  let max_compute = 64 in
  let perf = Perf.create () in
  let bus = Bus.create ~cpus perf in
  let clocks = Array.make cpus 0 in
  for _ = 1 to size do
    (* the round-robin scheduler advances the CPUs in lockstep: one
       compute burst per round, then each CPU's bus transaction in turn *)
    let compute = Sm.int rng ~bound:max_compute in
    for cpu = 0 to cpus - 1 do
      Bus.set_active bus cpu;
      let now = clocks.(cpu) + compute in
      let cycles = 1 + Sm.int rng ~bound:max_cycles in
      let fin = Bus.access bus ~track:Cpu ~now ~cycles in
      let wait = fin - cycles - now in
      expect (wait >= 0) "transaction finished early (wait %d)" wait;
      let bound = ((cpus - 1) * max_cycles) + max_compute in
      expect (wait <= bound) "cpu %d starved: waited %d > %d cycles" cpu wait
        bound;
      clocks.(cpu) <- fin
    done
  done;
  let waits = ref 0 in
  for cpu = 0 to cpus - 1 do
    expect
      (Bus.grants bus ~cpu = size)
      "cpu %d granted %d of %d transactions" cpu
      (Bus.grants bus ~cpu)
      size;
    waits := !waits + Bus.wait_cycles bus ~cpu
  done;
  expect
    (Bus.contention_cycles bus = !waits)
    "round-robin wait %d not all cross-CPU (contention %d)" !waits
    (Bus.contention_cycles bus)

(* {1 WAL checksum round-trip and torn-tail truncation}

   Random transaction histories (some committed, some left open) must
   recover to exactly the committed prefix applied in append order; a
   torn final record must be detected, truncated and never replayed. The
   incremental walk ([Ramdisk.wal_fold]) must agree with recovery's
   scan on both logs. *)

let words = 64

let random_history rng ~size =
  (* returns (entries in append order, committed image) *)
  let committed = Bytes.make (words * 4) '\000' in
  let staged = Bytes.copy committed in
  let entries = ref [] in
  let ntxns = 1 + Sm.int rng ~bound:(max 1 (size / 16)) in
  for txn = 1 to ntxns do
    Bytes.blit committed 0 staged 0 (Bytes.length committed);
    for _ = 1 to 1 + Sm.int rng ~bound:4 do
      let off = 4 * Sm.int rng ~bound:(words - 2) in
      let len = 4 * (1 + Sm.int rng ~bound:2) in
      let payload =
        Bytes.init len (fun _ -> Char.chr (Sm.int rng ~bound:256))
      in
      Bytes.blit payload 0 staged off len;
      entries := Lvm_rvm.Ramdisk.Data { txn; off; bytes = payload } :: !entries
    done;
    if Sm.bool rng then begin
      entries := Lvm_rvm.Ramdisk.Commit { txn } :: !entries;
      Bytes.blit staged 0 committed 0 (Bytes.length staged)
    end
  done;
  (List.rev !entries, committed)

let prop_wal rng size =
  let k = Lvm_vm.Kernel.create ~frames:64 () in
  let rd = Lvm_rvm.Ramdisk.create k ~size:(words * 4) in
  let entries, committed = random_history rng ~size in
  List.iter (Lvm_rvm.Ramdisk.wal_append rd) entries;
  let image, report = Lvm_rvm.Ramdisk.recover rd in
  expect (report.Lvm_rvm.Ramdisk.torn = None) "intact log scanned as torn";
  expect
    (report.Lvm_rvm.Ramdisk.truncated_bytes = 0)
    "intact log lost %d bytes" report.Lvm_rvm.Ramdisk.truncated_bytes;
  expect
    (report.Lvm_rvm.Ramdisk.scanned = List.length entries)
    "scanned %d of %d records" report.Lvm_rvm.Ramdisk.scanned
    (List.length entries);
  expect (Bytes.equal image committed) "recovered image differs from model";
  (* The incremental walk agrees with recovery's scan: from 0 it yields
     exactly the scanned records, and resuming from any boundary it
     returned yields the matching suffix. *)
  let walk off =
    let rev, stop =
      Lvm_rvm.Ramdisk.wal_fold rd ~off ~init:[] ~f:(fun acc ~off e ->
          (off, e) :: acc)
    in
    (List.rev rev, stop)
  in
  let walked, stop = walk 0 in
  expect
    (List.length walked = report.Lvm_rvm.Ramdisk.scanned
     && List.map snd walked = entries)
    "wal_fold from 0 yielded %d records, recovery scanned %d"
    (List.length walked) report.Lvm_rvm.Ramdisk.scanned;
  expect
    (stop = Lvm_rvm.Ramdisk.log_bytes rd)
    "wal_fold stopped at %d of %d intact bytes" stop
    (Lvm_rvm.Ramdisk.log_bytes rd);
  List.iteri
    (fun i (off, _) ->
      expect
        (walk off = (List.filteri (fun j _ -> j >= i) walked, stop))
        "wal_fold resumed at %d does not yield the suffix" off)
    walked;
  (* Now tear the next append and crash. Any prefix of a record fails to
     parse (short header, short payload or checksum mismatch), so
     recovery must truncate the tail and land back on the same state. *)
  let keep = 1 + Sm.int rng ~bound:23 in
  Lvm_machine.Machine.set_fault_plan (Lvm_vm.Kernel.machine k)
    (Some
       (Lvm_fault.Plan.create
          [ { Lvm_fault.Plan.site = Lvm_fault.Fault.Ramdisk_write;
              trigger = Lvm_fault.Plan.At_count 1;
              fault = Lvm_fault.Fault.Torn_write { keep } } ]));
  let torn_entry =
    Lvm_rvm.Ramdisk.Data
      { txn = 1000; off = 0; bytes = Bytes.make 8 '\xFF' }
  in
  (match Lvm_rvm.Ramdisk.wal_append rd torn_entry with
  | () -> failwith "torn write did not crash"
  | exception Lvm_fault.Fault.Crashed _ -> ());
  Lvm_machine.Machine.set_fault_plan (Lvm_vm.Kernel.machine k) None;
  let _, torn_stop = walk 0 in
  let torn_len = Lvm_rvm.Ramdisk.log_bytes rd in
  let image', report' = Lvm_rvm.Ramdisk.recover rd in
  expect
    (torn_stop = torn_len - report'.Lvm_rvm.Ramdisk.truncated_bytes)
    "wal_fold stopped at %d on the torn log, recovery kept %d" torn_stop
    (torn_len - report'.Lvm_rvm.Ramdisk.truncated_bytes);
  expect (report'.Lvm_rvm.Ramdisk.torn <> None) "torn tail not detected";
  expect
    (report'.Lvm_rvm.Ramdisk.truncated_bytes > 0)
    "torn tail not truncated";
  expect (Bytes.equal image' committed)
    "torn record leaked into the recovered image";
  (* recovery physically repaired the log: a second recovery is clean *)
  let image'', report'' = Lvm_rvm.Ramdisk.recover rd in
  expect (report''.Lvm_rvm.Ramdisk.torn = None) "repaired log still torn";
  expect (Bytes.equal image'' committed) "second recovery differs"

(* {1 Extent-ring round-trip}

   A log stream that crosses several extent seams must round-trip
   through [Log_reader.fold] — every record, in order, transparently
   across extent boundaries — and the ring accounting must agree with
   the stream's geometry. One-page extents put a seam at every page
   crossing, the worst case. *)

let prop_extent_ring rng size =
  let page = Addr.page_size in
  let k = Lvm_vm.Kernel.create () in
  let sp = Lvm_vm.Kernel.create_space k in
  let seg = Lvm_vm.Kernel.create_segment k ~size:page in
  let region = Lvm_vm.Kernel.create_region k seg in
  let log = Lvm_log.create ~extent_pages:1 k ~size:(4 * page) in
  let ls = Lvm_log.segment log in
  Lvm_vm.Kernel.set_region_log k region (Some ls);
  let base = Lvm_vm.Kernel.bind k sp region in
  let per_extent = page / Log_record.bytes in
  (* spans at least three of the ring's four extents, never overflows *)
  let n =
    (2 * per_extent) + 1
    + Sm.int rng ~bound:(min (2 * per_extent) (max 1 (8 * size)))
  in
  let expected = ref [] in
  for _ = 1 to n do
    let off = 4 * Sm.int rng ~bound:(page / 4) in
    let v = Int64.to_int (Int64.logand (Sm.next_u64 rng) 0xFFFFFFFFL) in
    Lvm_vm.Kernel.write_word k sp (base + off) v;
    expected := v :: !expected
  done;
  let expected = List.rev !expected in
  let count, got =
    Lvm_log.sync log;
    Lvm.Log_reader.fold k ls ~init:(0, []) ~f:(fun (c, acc) ~off r ->
        expect (off = c * Log_record.bytes) "record %d at offset %d" c off;
        (c + 1, r.Log_record.value :: acc))
  in
  expect (count = n) "fold saw %d of %d records" count n;
  expect (List.rev got = expected) "folded values differ from the stream";
  let s = Lvm_log.stats log in
  expect (s.Lvm_log.extents = 4) "ring has %d extents" s.Lvm_log.extents;
  let crossings = ((n * Log_record.bytes) - 1) / page in
  expect
    (s.Lvm_log.switches = crossings)
    "%d extent switches, geometry says %d" s.Lvm_log.switches crossings;
  expect
    (s.Lvm_log.write_pos = n * Log_record.bytes)
    "write_pos %d after %d records" s.Lvm_log.write_pos n

(* {1 Zipf sampler vs its own theory curve}

   The sampler's empirical frequency-rank curve must match the exact
   pmf it was built from, for whatever (n, theta) the case draws —
   uniform (theta 0) through heavily skewed — and a seed must replay
   the identical sample stream. *)

module Wl = Lvm_store.Workload

let prop_zipf rng size =
  let n = 2 + (size mod 62) in
  let theta = [| 0.0; 0.5; 0.99; 1.2; 1.5 |].(Sm.int rng ~bound:5) in
  let z = Wl.Zipf.create ~n ~theta in
  (* the pmf is a distribution: sums to 1, non-increasing in rank *)
  let mass = ref 0.0 in
  for r = 0 to n - 1 do
    let p = Wl.Zipf.pmf z r in
    expect (p > 0.0) "rank %d has zero mass" r;
    if r > 0 then
      expect
        (p <= Wl.Zipf.pmf z (r - 1) +. 1e-12)
        "pmf increases at rank %d (theta %.2f)" r theta;
    mass := !mass +. p
  done;
  expect (abs_float (!mass -. 1.0) < 1e-9) "pmf sums to %.12f" !mass;
  (* empirical frequencies track the pmf *)
  let samples = 4000 in
  let sample_seed = Int64.to_int (Sm.next_u64 rng) land 0xFFFFFF in
  let counts = Array.make n 0 in
  let s1 = Sm.create ~seed:sample_seed in
  for _ = 1 to samples do
    let r = Wl.Zipf.sample z s1 in
    expect (r >= 0 && r < n) "sample %d out of range" r;
    counts.(r) <- counts.(r) + 1
  done;
  for r = 0 to n - 1 do
    let p = Wl.Zipf.pmf z r in
    let emp = float_of_int counts.(r) /. float_of_int samples in
    let tol =
      (5.0 *. sqrt (p *. (1.0 -. p) /. float_of_int samples)) +. 0.005
    in
    expect
      (abs_float (emp -. p) <= tol)
      "rank %d: empirical %.4f vs pmf %.4f (n=%d theta=%.2f)" r emp p n theta
  done;
  (* determinism: the same seed replays the same stream *)
  let s2 = Sm.create ~seed:sample_seed in
  let replay = Array.make n 0 in
  for _ = 1 to samples do
    let r = Wl.Zipf.sample z s2 in
    replay.(r) <- replay.(r) + 1
  done;
  expect (replay = counts) "same seed, different sample stream"

(* The guide-table draw is the binary-search draw, exactly: at every CDF
   value, the floats either side of it, every guide bucket's lower edge
   and the float below it, 0 and the largest unit draw. *)
let prop_zipf_guide rng size =
  let n = 1 + Sm.int rng ~bound:(4 * size) in
  let theta = [| 0.0; 0.5; 0.99; 1.1; 1.5; 3.0 |].(Sm.int rng ~bound:6) in
  let z = Wl.Zipf.create ~n ~theta in
  let agree u =
    let got = Wl.Zipf.rank z u and want = Wl.Zipf.rank_by_search z u in
    expect (got = want) "u = %h (n=%d theta=%.2f): guide %d, search %d" u n
      theta got want
  in
  agree 0.0;
  agree (Float.pred 1.0);
  for r = 0 to n - 1 do
    let c = Wl.Zipf.cdf z r in
    agree (Float.pred c);
    agree c;
    agree (Float.succ c)
  done;
  for k = 1 to n - 1 do
    let edge = float_of_int k /. float_of_int n in
    agree edge;
    agree (Float.pred edge)
  done;
  for _ = 1 to 64 do
    agree (Sm.unit_float rng)
  done

(* {1 Split-then-merge round-trip}

   Move a random subset of shard 0's buckets to another shard and back:
   every key must read its pre-split value after both the split and the
   merge, the routing table must show exactly the moved buckets away
   (then none), and no key may resolve to a shard outside the table —
   one owner per bucket, always. *)

module St = Lvm_store.Store

let read_ok st key =
  match St.read st key with
  | Ok v -> v
  | Error e -> failwith (Lvm.Lvm_error.to_string e)

let route_invariant st ~label =
  let shards = (St.config st).St.Config.shards in
  let route = St.route_table st in
  Array.iteri
    (fun b s ->
      expect (s >= 0 && s < shards) "%s: bucket %d routed to shard %d" label
        b s)
    route;
  let keys = (St.config st).St.Config.keys in
  for key = 0 to keys - 1 do
    expect
      (St.shard_of_key st key = route.(St.bucket_of_key st key))
      "%s: key %d owned outside its bucket's route" label key
  done

let prop_split_roundtrip rng size =
  let shards = 2 + Sm.int rng ~bound:3 in
  let keys = shards * 8 in
  let st =
    St.create
      { St.Config.default with shards; keys; log_pages = 8; compute = 40 }
  in
  (* seed every key with a distinct value, a few keys per transaction *)
  let value key = 0x1000 + (key * 7) + (size mod 97) in
  let rec seed_keys key =
    if key < keys then begin
      let batch = min 8 (keys - key) in
      let writes = List.init batch (fun i -> (key + i, value (key + i))) in
      (match St.exec st ~writes with
      | Ok () -> ()
      | Error e -> failwith (Lvm.Lvm_error.to_string e));
      seed_keys (key + batch)
    end
  in
  seed_keys 0;
  let to_ = 1 + Sm.int rng ~bound:(shards - 1) in
  let owned = St.shard_buckets st 0 in
  (* a random non-empty strict subset of shard 0's buckets *)
  let picked =
    List.filter (fun _ -> Sm.bool rng) owned
  in
  let picked =
    match picked with
    | [] -> [ List.hd owned ]
    | l when List.length l = List.length owned -> List.tl l
    | l -> l
  in
  St.move st ~from_:0 ~to_ ~batch:(1 + Sm.int rng ~bound:8) picked;
  route_invariant st ~label:"post-split";
  List.iter
    (fun b ->
      expect (St.owner_of_bucket st b = to_) "bucket %d did not move" b)
    picked;
  for key = 0 to keys - 1 do
    expect
      (read_ok st key = value key)
      "post-split key %d: got %d want %d" key (read_ok st key) (value key)
  done;
  St.move st ~from_:to_ ~to_:0 ~batch:(1 + Sm.int rng ~bound:8) picked;
  route_invariant st ~label:"post-merge";
  Array.iteri
    (fun b s ->
      expect (s = St.default_owner st b) "bucket %d not home after merge" b)
    (St.route_table st);
  for key = 0 to keys - 1 do
    expect
      (read_ok st key = value key)
      "post-merge key %d: got %d want %d" key (read_ok st key) (value key)
  done

(* {1 Sparse physical memory vs a flat byte array}

   Frames get their bytes on first write, so the model is what memory
   used to be: one zero-filled [Bytes.t]. Every sized read and write,
   blit in and out, and in-memory blit — at random, often unaligned and
   frame-straddling addresses, over frames never touched — must agree
   with it, as must alloc (which re-zeroes), free and [zero_frame]. *)

let prop_physmem_sparse rng size =
  let frames = 1 + Sm.int rng ~bound:4 in
  let total = frames * Addr.page_size in
  let mem = Physmem.create ~frames in
  let model = Bytes.make total '\000' in
  let free = ref (List.init frames Fun.id) in
  let zero fn = Bytes.fill model (fn * Addr.page_size) Addr.page_size '\000' in
  (* addresses cluster near frame boundaries half of the time *)
  let addr len =
    if Sm.bool rng && frames > 1 then
      let edge = (1 + Sm.int rng ~bound:(frames - 1)) * Addr.page_size in
      max 0 (min (total - len) (edge - 8 + Sm.int rng ~bound:16))
    else Sm.int rng ~bound:(total - len + 1)
  in
  let model_get a len =
    let v = ref 0 in
    for i = len - 1 downto 0 do
      v := (!v lsl 8) lor Bytes.get_uint8 model (a + i)
    done;
    !v
  in
  for _ = 1 to 4 * size do
    match Sm.int rng ~bound:8 with
    | 0 | 1 ->
      let len = List.nth [ 1; 2; 4 ] (Sm.int rng ~bound:3) in
      let a = addr len in
      let got = Physmem.read_sized mem a ~size:len in
      expect (got = model_get a len) "read %d at 0x%x: %x, model %x" len a
        got (model_get a len)
    | 2 | 3 ->
      let len = List.nth [ 1; 2; 4 ] (Sm.int rng ~bound:3) in
      let a = addr len in
      let v = Int64.to_int (Sm.next_u64 rng) in
      Physmem.write_sized mem a ~size:len v;
      for i = 0 to len - 1 do
        Bytes.set_uint8 model (a + i) ((v lsr (8 * i)) land 0xFF)
      done
    | 4 ->
      let len = Sm.int rng ~bound:(min total 6000) in
      let src = addr len and dst = addr len in
      Physmem.blit mem ~src ~dst ~len;
      Bytes.blit model src model dst len
    | 5 ->
      let len = Sm.int rng ~bound:(min total 6000) in
      let a = addr len in
      let buf = Bytes.init (len + 2) (fun _ -> Char.chr (Sm.int rng ~bound:256)) in
      if Sm.bool rng then begin
        Physmem.blit_of_bytes mem buf ~pos:1 ~dst:a ~len;
        Bytes.blit buf 1 model a len
      end
      else begin
        Physmem.blit_to_bytes mem ~src:a buf ~pos:1 ~len;
        expect (Bytes.sub buf 1 len = Bytes.sub model a len)
          "blit_to_bytes of %d at 0x%x differs" len a
      end
    | 6 -> (
      match !free with
      | fn :: rest ->
        let got = Physmem.alloc_frame mem in
        expect (got = fn) "alloc_frame gave %d, model %d" got fn;
        free := rest;
        zero fn
      | [] ->
        expect
          (match Physmem.alloc_frame mem with
          | _ -> false
          | exception Physmem.Out_of_frames -> true)
          "alloc_frame with no free frame did not raise")
    | _ ->
      let fn = Sm.int rng ~bound:frames in
      if Sm.bool rng then begin
        Physmem.zero_frame mem fn;
        zero fn
      end
      else if not (List.mem fn !free) then begin
        Physmem.free_frame mem fn;
        free := fn :: !free
      end
  done;
  expect (Physmem.frames_free mem = List.length !free) "frames_free %d, model %d"
    (Physmem.frames_free mem) (List.length !free);
  let all = Bytes.create total in
  Physmem.blit_to_bytes mem ~src:0 all ~pos:0 ~len:total;
  expect (Bytes.equal all model) "final memory differs from the flat model"

(* {1 Charge-only reads vs full reads}

   [Machine.charge_read ~words:n] must be [n] word [Machine.read]s minus
   the data: two machines fed the same access stream — reads issued one
   way on one and the other way on the other, with writes and CPU
   switches between — must agree on every CPU clock, every perf counter
   and every L1 line, and, with a [Plan.crash_at] armed, crash at the
   same access and cycle. Runs of [n] words sometimes cross a line. *)

let prop_charge_read rng size =
  let cpus = 1 + Sm.int rng ~bound:4 in
  let make () = Machine.create ~frames:8 ~cpus () in
  let full = make () and charged = make () in
  let crash_at =
    if Sm.bool rng then Some (Sm.int rng ~bound:(50 * size)) else None
  in
  Option.iter
    (fun n ->
      Machine.set_fault_plan full (Some (Lvm_fault.Plan.crash_at n));
      Machine.set_fault_plan charged (Some (Lvm_fault.Plan.crash_at n)))
    crash_at;
  let lines = ref [] in
  let step m op =
    match op with
    | `Cpu c -> Machine.set_cpu m c
    | `Read (paddr, words, true) ->
      for w = 0 to words - 1 do
        ignore (Machine.read m ~paddr:(paddr + (4 * w)) ~size:4)
      done
    | `Read (paddr, words, false) -> Machine.charge_read m ~paddr ~words
    | `Write (paddr, v) ->
      Machine.write m ~paddr ~size:4 ~mode:Machine.Write_back ~logged:false v
    | `Compute c -> Machine.compute m c
  in
  let outcome m op =
    match step m op with
    | () -> None
    | exception Lvm_fault.Fault.Crashed { cycle; _ } -> Some cycle
  in
  let crashed = ref false in
  let i = ref 0 in
  while (not !crashed) && !i < 8 * size do
    incr i;
    let paddr = Sm.int rng ~bound:((8 * Addr.page_size / 4) - 4) * 4 in
    let op, op' =
      match Sm.int rng ~bound:8 with
      | 0 -> let c = `Cpu (Sm.int rng ~bound:cpus) in (c, c)
      | 1 -> let w = `Write (paddr, Sm.int rng ~bound:1000) in (w, w)
      | 2 -> let c = `Compute (Sm.int rng ~bound:20) in (c, c)
      | _ ->
        let words = 1 + Sm.int rng ~bound:4 in
        lines := paddr :: (paddr + (4 * (words - 1))) :: !lines;
        (`Read (paddr, words, true), `Read (paddr, words, false))
    in
    let a = outcome full op and b = outcome charged op' in
    expect (a = b) "step %d: crash outcome differs" !i;
    if a <> None then crashed := true
  done;
  for c = 0 to cpus - 1 do
    expect
      (Machine.cpu_time full ~cpu:c = Machine.cpu_time charged ~cpu:c)
      "cpu %d clock %d vs %d" c (Machine.cpu_time full ~cpu:c)
      (Machine.cpu_time charged ~cpu:c)
  done;
  expect
    (Perf.to_alist (Machine.perf full) = Perf.to_alist (Machine.perf charged))
    "perf counters differ";
  for c = 0 to cpus - 1 do
    Machine.set_cpu full c;
    Machine.set_cpu charged c;
    List.iter
      (fun paddr ->
        expect
          (L1_cache.contains_line (Machine.l1 full) ~paddr
          = L1_cache.contains_line (Machine.l1 charged) ~paddr)
          "cpu %d: L1 residency of 0x%x differs" c paddr)
      !lines
  done

(* {1 One-lookup line charge vs the per-word loop}

   [Machine.charge_read ~words:n] over words of one line takes one cache
   lookup and charges each further word as a hit. It must be
   indistinguishable from [n] one-word charges: the same CPU clocks,
   counters (L1 hits, misses and write-backs, bus grants and waits) and
   histograms, from any cache state that random reads, write-back and
   write-through stores, compute and CPU switches reach. With a
   [Plan.crash_at] armed inside a record, the charge keeps its per-word
   crash boundaries, so the crash lands on the same cycle. *)

let line_accesses rng size ~cpus =
  List.init (8 * size) (fun _ ->
      let paddr = Sm.int rng ~bound:(8 * Addr.page_size / 4) * 4 in
      match Sm.int rng ~bound:10 with
      | 0 -> `Cpu (Sm.int rng ~bound:cpus)
      | 1 -> `Write (paddr, Machine.Write_back)
      | 2 -> `Write (paddr, Machine.Write_through)
      | 3 -> `Compute (Sm.int rng ~bound:20)
      | 4 ->
        (* possibly crossing into the next line *)
        `Read (min paddr ((8 * Addr.page_size) - 16), 1 + Sm.int rng ~bound:4)
      | _ ->
        (* a record-shaped read: [words] words inside one line *)
        let words = 1 + Sm.int rng ~bound:4 in
        let line = Addr.line_base paddr in
        let first = Sm.int rng ~bound:(Addr.words_per_line - words + 1) in
        `Read (line + (first * Addr.word_size), words))

let run_access m ~per_word = function
  | `Cpu c -> Machine.set_cpu m c
  | `Write (paddr, mode) ->
    Machine.write m ~paddr ~size:4 ~mode ~logged:false paddr
  | `Compute c -> Machine.compute m c
  | `Read (paddr, words) ->
    if per_word then
      for w = 0 to words - 1 do
        Machine.charge_read m ~paddr:(paddr + (w * Addr.word_size)) ~words:1
      done
    else Machine.charge_read m ~paddr ~words

let machine_state m =
  let obs = Machine.obs m in
  ( List.init (Machine.cpus m) (fun cpu -> Machine.cpu_time m ~cpu),
    Lvm_obs.Snapshot.to_alist (Lvm_obs.Ctx.snapshot obs),
    List.map
      (fun h ->
        ( Lvm_obs.Histogram.name h,
          Array.to_list (Lvm_obs.Histogram.counts h),
          Lvm_obs.Histogram.sum h ))
      (Lvm_obs.Ctx.histograms obs) )

let prop_line_charge rng size =
  let cpus = 1 + Sm.int rng ~bound:4 in
  let ops = line_accesses rng size ~cpus in
  let grouped = Machine.create ~frames:8 ~cpus ()
  and per_word = Machine.create ~frames:8 ~cpus () in
  List.iter (run_access grouped ~per_word:false) ops;
  List.iter (run_access per_word ~per_word:true) ops;
  expect (machine_state grouped = machine_state per_word)
    "%d CPUs: clocks, counters or histograms differ" cpus

let prop_line_charge_crash rng size =
  let ops = line_accesses rng size ~cpus:1 in
  (* an unarmed run finds the cycle span of every multi-word read *)
  let dry = Machine.create ~frames:8 () in
  let spans =
    List.filter_map
      (fun op ->
        let t0 = Machine.time dry in
        run_access dry ~per_word:false op;
        match op with
        | `Read (paddr, words)
          when words > 1
               && Addr.line_number paddr
                  = Addr.line_number (paddr + ((words - 1) * Addr.word_size))
          ->
          Some (t0, Machine.time dry)
        | _ -> None)
      ops
  in
  if spans <> [] then begin
    let t0, t1 = List.nth spans (Sm.int rng ~bound:(List.length spans)) in
    (* a crash point after the record's first word, at or before its
       last word's boundary (that word is a hit: one cycle) *)
    let at = t0 + 1 + Sm.int rng ~bound:(t1 - t0 - 1) in
    let crash per_word =
      let m = Machine.create ~frames:8 () in
      Machine.set_fault_plan m (Some (Lvm_fault.Plan.crash_at at));
      match List.iter (run_access m ~per_word) ops with
      | () -> None
      | exception Lvm_fault.Fault.Crashed { cycle; _ } ->
        Some (cycle, machine_state m)
    in
    match (crash false, crash true) with
    | Some (c, grouped), Some (c', per_word) ->
      expect (c = c') "crash at cycle %d vs %d" c c';
      expect (c > t0 && c < t1) "crash at %d, outside the record [%d, %d)" c
        t0 t1;
      expect (grouped = per_word) "state at the crash differs"
    | _ -> expect false "armed at %d inside [%d, %d): no crash" at t0 t1
  end

(* {1 Histogram buckets vs a linear scan} *)

let prop_histogram_bucket rng size =
  let n = 1 + Sm.int rng ~bound:16 in
  let bounds = Array.make n (Sm.int rng ~bound:100 - 50) in
  for i = 1 to n - 1 do
    bounds.(i) <- bounds.(i - 1) + 1 + Sm.int rng ~bound:40
  done;
  let h = Lvm_obs.Histogram.create ~name:"h" ~bounds in
  let model = Array.make (n + 1) 0 in
  let lo = bounds.(0) - 60 and span = bounds.(n - 1) - bounds.(0) + 120 in
  for _ = 1 to size do
    let v = lo + Sm.int rng ~bound:span in
    Lvm_obs.Histogram.observe h v;
    let rec first i = if i = n || v <= bounds.(i) then i else first (i + 1) in
    let b = first 0 in
    model.(b) <- model.(b) + 1
  done;
  expect (Lvm_obs.Histogram.counts h = model) "%d bounds: bucket counts differ"
    n

let prop name ?max_size ?cases:c p =
  let shown = match c with None -> cases | Some c -> c in
  Alcotest.test_case (Printf.sprintf "%s (%d cases)" name shown) `Quick
    (fun () -> check ?max_size ?cases:c name p)

let suites =
  [
    ( "prop",
      [
        prop "log_record round-trip" prop_log_record;
        prop "fifo vs model" prop_fifo;
        prop "logger overload threshold" ~max_size:128 prop_logger_overload;
        prop "bus arbiter fairness" prop_bus_fairness;
        prop "wal round-trip + torn tail" ~max_size:128 prop_wal;
        prop "extent ring fold round-trip" ~max_size:64 prop_extent_ring;
        prop "sparse physmem vs flat bytes" ~max_size:64 ~cases:(min cases 300)
          prop_physmem_sparse;
        prop "charge_read matches read" ~max_size:64 ~cases:(min cases 200)
          prop_charge_read;
        prop "line charge = per-word loop" ~max_size:64 ~cases:(min cases 200)
          prop_line_charge;
        prop "line charge crash lands on the same cycle" ~max_size:64
          ~cases:(min cases 200) prop_line_charge_crash;
        prop "histogram bucket vs linear scan" ~max_size:64
          ~cases:(min cases 300) prop_histogram_bucket;
        prop "pmt vs direct-mapped reference" ~max_size:64
          ~cases:(min cases 200) prop_pmt;
        Alcotest.test_case "saturation overloads" `Quick test_overload_fires;
      ] );
    ( "hotshard.prop",
      [
        prop "zipf frequency-rank curve" ~max_size:128
          ~cases:(min cases 200) prop_zipf;
        prop "zipf guide draw = binary search" ~max_size:256
          ~cases:(min cases 200) prop_zipf_guide;
        prop "split-then-merge round-trip" ~max_size:64 ~cases:(min cases 48)
          prop_split_roundtrip;
      ] );
  ]
