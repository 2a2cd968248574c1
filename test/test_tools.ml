(* Tests for the debugging/monitoring tools and log-based consistency. *)

open Lvm_vm
open Lvm_tools

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let boot () =
  let k = Kernel.create () in
  let sp = Kernel.create_space k in
  (k, sp)

let logged_region ?(pages = 16) k =
  let seg = Kernel.create_segment k ~size:8192 in
  let region = Kernel.create_region k seg in
  let ls =
    Kernel.create_log_segment k ~size:(pages * Lvm_machine.Addr.page_size)
  in
  Kernel.set_region_log k region (Some ls);
  (seg, region, ls)

(* {1 Watchpoints} *)

let test_watchpoint_hits () =
  let k, sp = boot () in
  let seg, region, ls = logged_region k in
  let base = Kernel.bind k sp region in
  Kernel.write_word k sp (base + 0x10) 1;
  Kernel.write_word k sp (base + 0x20) 2;
  Kernel.write_word k sp (base + 0x10) 3;
  let hits = Watchpoint.hits k ~log:ls ~watched:seg ~off:0x10 ~len:4 in
  Alcotest.(check (list int)) "two hits, in order" [ 1; 3 ]
    (List.map (fun h -> h.Watchpoint.value) hits);
  (match Watchpoint.last_writer k ~log:ls ~watched:seg ~off:0x10 with
  | Some h ->
    check "last writer value" 3 h.Watchpoint.value;
    check "record index" 2 h.Watchpoint.record_index
  | None -> Alcotest.fail "expected a writer");
  check_bool "unwritten offset has no writer" true
    (Watchpoint.last_writer k ~log:ls ~watched:seg ~off:0x40 = None)

let test_watchpoint_range_overlap () =
  let k, sp = boot () in
  let seg, region, ls = logged_region k in
  let base = Kernel.bind k sp region in
  Kernel.write k sp ~vaddr:(base + 0x13) ~size:1 0xAB;
  let hits = Watchpoint.hits k ~log:ls ~watched:seg ~off:0x10 ~len:4 in
  check "byte write inside watched word" 1 (List.length hits);
  let hits' = Watchpoint.hits k ~log:ls ~watched:seg ~off:0x14 ~len:4 in
  check "not in adjacent word" 0 (List.length hits')

let test_watchpoint_corruption () =
  let k, sp = boot () in
  let seg, region, ls = logged_region k in
  let base = Kernel.bind k sp region in
  Kernel.write_word k sp (base + 8) 0xCAFE (* legitimate *);
  Kernel.write_word k sp (base + 8) 0xCAFE (* rewrite, same value *);
  Kernel.write_word k sp (base + 8) 0xDEAD (* the corruption *);
  match Watchpoint.first_corruption k ~log:ls ~watched:seg ~off:8
          ~expected:0xCAFE with
  | Some h ->
    check "corrupting value" 0xDEAD h.Watchpoint.value;
    check "third record" 2 h.Watchpoint.record_index
  | None -> Alcotest.fail "corruption not found"

(* {1 Debugger attach/detach} *)

let test_debugger_attach_detach () =
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:4096 in
  let region = Kernel.create_region k seg in
  let base = Kernel.bind k sp region in
  Kernel.write_word k sp base 1 (* before attach: unlogged *);
  let dbg = Debugger.attach k region in
  Kernel.write_word k sp base 2;
  Kernel.write_word k sp base 3;
  Debugger.detach dbg;
  Kernel.write_word k sp base 4 (* after detach: unlogged *);
  check "observed only attached-window writes" 2 (Debugger.writes_observed dbg);
  Alcotest.(check (list int)) "history values" [ 2; 3 ]
    (List.map snd (Debugger.history dbg ~off:0));
  check "program unaffected" 4 (Kernel.read_word k sp base)

let test_debugger_rejects_logged_region () =
  let k, sp = boot () in
  let _seg, region, _ls = logged_region k in
  ignore (Kernel.bind k sp region);
  Alcotest.check_raises "already logged"
    (Invalid_argument "Debugger.attach: region is already logged") (fun () ->
      ignore (Debugger.attach k region))

(* {1 Reverse execution} *)

let test_reverse_exec_time_travel () =
  let k, sp = boot () in
  (* debuggee: logged working segment with checkpoint source *)
  let working = Kernel.create_segment k ~size:4096 in
  let ckpt = Kernel.create_segment k ~size:4096 in
  Kernel.declare_source k ~dst:working ~src:ckpt ~offset:0;
  let region = Kernel.create_region k working in
  let ls = Kernel.create_log_segment k ~size:(8 * Lvm_machine.Addr.page_size)
  in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  (* run the "program": x <- 1, 2, 3 at offset 0; y <- 9 at offset 4 *)
  Kernel.write_word k sp base 1;
  Kernel.write_word k sp base 2;
  Kernel.write_word k sp (base + 4) 9;
  Kernel.write_word k sp base 3;
  let rx = Reverse_exec.create k ~space:sp ~working ~region ~base ~log:ls in
  check "length" 4 (Reverse_exec.length rx);
  check "at failure state" 3 (Kernel.read_word k sp base);
  check_bool "step back" true (Reverse_exec.step_back rx);
  check "x before last write" 2 (Kernel.read_word k sp base);
  check "y still set" 9 (Kernel.read_word k sp (base + 4));
  Reverse_exec.seek rx 1;
  check "x after first write" 1 (Kernel.read_word k sp base);
  check "y not yet written" 0 (Kernel.read_word k sp (base + 4));
  Reverse_exec.seek rx 0;
  check "initial state" 0 (Kernel.read_word k sp base);
  check_bool "cannot step back past start" false (Reverse_exec.step_back rx);
  check_bool "step forward" true (Reverse_exec.step_forward rx);
  check "forward replays first write" 1 (Kernel.read_word k sp base);
  Reverse_exec.detach rx;
  check "detach restores failure state" 3 (Kernel.read_word k sp base);
  (* logging is live again after detach *)
  Kernel.write_word k sp base 7;
  check "records appended post-detach" 5 (Lvm.Log_reader.record_count k ls)

let prop_reverse_exec_seek_consistent =
  QCheck.Test.make ~name:"seek n shows prefix-replay state" ~count:40
    QCheck.(
      pair
        (list_of_size
           (Gen.int_range 1 25)
           (pair (int_bound 15) (int_bound 99)))
        (int_bound 25))
    (fun (writes, pos) ->
      let k, sp = boot () in
      let working = Kernel.create_segment k ~size:4096 in
      let ckpt = Kernel.create_segment k ~size:4096 in
      Kernel.declare_source k ~dst:working ~src:ckpt ~offset:0;
      let region = Kernel.create_region k working in
      let ls =
        Kernel.create_log_segment k ~size:(8 * Lvm_machine.Addr.page_size)
      in
      Kernel.set_region_log k region (Some ls);
      let base = Kernel.bind k sp region in
      List.iter (fun (w, v) -> Kernel.write_word k sp (base + (w * 4)) v)
        writes;
      let rx =
        Reverse_exec.create k ~space:sp ~working ~region ~base ~log:ls
      in
      let n = min pos (Reverse_exec.length rx) in
      Reverse_exec.seek rx n;
      (* model: first n writes *)
      let expect = Array.make 16 0 in
      List.iteri (fun i (w, v) -> if i < n then expect.(w) <- v) writes;
      let ok = ref true in
      for w = 0 to 15 do
        if Kernel.read_word k sp (base + (w * 4)) <> expect.(w) then
          ok := false
      done;
      !ok)

(* Under the V1 codec a run container carries several writes; forward
   replay must apply every one of them, not the container's first. *)
let v1_debuggee () =
  let k = Kernel.create ~codec:Lvm_machine.Log_record.V1 ~coalesce_depth:16 ()
  in
  let sp = Kernel.create_space k in
  let working = Kernel.create_segment k ~size:4096 in
  let ckpt = Kernel.create_segment k ~size:4096 in
  Kernel.declare_source k ~dst:working ~src:ckpt ~offset:0;
  let region = Kernel.create_region k working in
  let ls = Kernel.create_log_segment k ~size:(8 * Lvm_machine.Addr.page_size)
  in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  (k, sp, working, region, ls, base)

let test_reverse_exec_v1_runs () =
  let k, sp, working, region, ls, base = v1_debuggee () in
  for i = 0 to 7 do
    Kernel.write_word k sp (base + (4 * i)) (100 + i)
  done;
  let rx = Reverse_exec.create k ~space:sp ~working ~region ~base ~log:ls in
  check "eight writes indexed" 8 (Reverse_exec.length rx);
  let words () =
    List.init 8 (fun i -> Kernel.read_word k sp (base + (4 * i)))
  in
  Reverse_exec.seek rx 0;
  Alcotest.(check (list int)) "initial state" (List.init 8 (fun _ -> 0))
    (words ());
  Reverse_exec.seek rx 8;
  Alcotest.(check (list int)) "every write of the run replayed"
    (List.init 8 (fun i -> 100 + i)) (words ());
  Reverse_exec.seek rx 0;
  Reverse_exec.seek rx 3;
  Reverse_exec.seek rx 5;
  Alcotest.(check (list int)) "forward from inside the run"
    [ 100; 101; 102; 103; 104; 0; 0; 0 ] (words ());
  check "record of write 6" 106
    (Reverse_exec.record_at rx 6).Lvm_machine.Log_record.value

let prop_reverse_exec_v1_seeks =
  QCheck.Test.make ~name:"V1: every seek shows prefix-replay state" ~count:40
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 40)
           (pair (int_bound 15) (int_bound 99)))
        (list_of_size (Gen.int_range 1 6) (int_bound 40)))
    (fun (writes, seeks) ->
      let k, sp, working, region, ls, base = v1_debuggee () in
      (* sequential stretches form runs, repeated words form deltas *)
      List.iter (fun (w, v) -> Kernel.write_word k sp (base + (w * 4)) v)
        writes;
      (* coalescing squashes rewrites, so the model is the logged writes *)
      let logged =
        List.map
          (fun r ->
            ( Lvm.Log_reader.located k ~seg:working r / 4,
              r.Lvm_machine.Log_record.value ))
          (Lvm.Log_reader.to_list k ls)
      in
      let rx =
        Reverse_exec.create k ~space:sp ~working ~region ~base ~log:ls
      in
      List.length logged = Reverse_exec.length rx
      && List.for_all
        (fun pos ->
          let n = min pos (Reverse_exec.length rx) in
          Reverse_exec.seek rx n;
          let expect = Array.make 16 0 in
          List.iteri (fun i (w, v) -> if i < n then expect.(w) <- v) logged;
          List.for_all
            (fun w -> Kernel.read_word k sp (base + (w * 4)) = expect.(w))
            (List.init 16 Fun.id))
        seeks)

(* {1 Address traces} *)

let test_address_trace () =
  let k, sp = boot () in
  let _seg, region, ls = logged_region k in
  let base = Kernel.bind k sp region in
  (* page 0 of the segment written 3 times, page 1 once *)
  Kernel.write_word k sp base 1;
  Kernel.write_word k sp (base + 8) 2;
  Kernel.write_word k sp (base + 12) 3;
  Kernel.write_word k sp (base + 4096) 4;
  let trace = Address_trace.of_log k ls in
  check "four entries" 4 (List.length trace);
  (match Address_trace.hottest_page k ls with
  | Some (_, count) -> check "hottest page count" 3 count
  | None -> Alcotest.fail "no hottest page");
  check "histogram has two pages" 2
    (List.length (Address_trace.page_histogram k ls))

(* {1 Output streams} *)

let test_output_indexed_stream () =
  let k, sp = boot () in
  let out = Output_stream.create_indexed k sp ~size:4096 ~log_pages:4 in
  Output_stream.emit out 10;
  Output_stream.emit out 20;
  Output_stream.emit out 30;
  Alcotest.(check (list int)) "streamed values" [ 10; 20; 30 ]
    (Output_stream.consume out);
  Alcotest.(check (list int)) "consumed prefix dropped" []
    (Output_stream.consume out);
  Output_stream.emit out 40;
  Alcotest.(check (list int)) "subsequent values" [ 40 ]
    (Output_stream.consume out)

let test_output_direct_mapped () =
  let k, sp = boot () in
  let out = Output_stream.create_direct k sp ~size:8192 in
  Output_stream.emit_at out ~off:0x120 77;
  Output_stream.emit_at out ~off:0x1800 88;
  check "mirror word page 0" 77 (Output_stream.mirror_word out ~off:0x120);
  check "mirror word page 1" 88 (Output_stream.mirror_word out ~off:0x1800)

(* {1 Log-based consistency (Section 2.6)} *)

open Lvm_consistency

let consistency_fixture protocol =
  let k, sp = boot () in
  (k, Shared_segment.create k sp ~size:8192 protocol)

let exercise t =
  Shared_segment.acquire t;
  Shared_segment.write_word t ~off:0 1;
  Shared_segment.write_word t ~off:256 2;
  Shared_segment.write_word t ~off:4200 3;
  Shared_segment.release t

let test_consistency_twin_diff () =
  let _, t = consistency_fixture Shared_segment.Twin_diff in
  let s = exercise t in
  check "three words sent" 3 s.Shared_segment.words_sent;
  check "two pages => two messages" 2 s.Shared_segment.messages;
  check_bool "replica consistent" true (Shared_segment.replica_consistent t);
  check "consumer sees update" 3 (Shared_segment.consumer_word t ~off:4200)

let test_consistency_log_based () =
  let _, t = consistency_fixture Shared_segment.Log_based in
  let s = exercise t in
  check "three words sent" 3 s.Shared_segment.words_sent;
  check_bool "replica consistent" true (Shared_segment.replica_consistent t);
  check "consumer sees update" 2 (Shared_segment.consumer_word t ~off:256)

let test_consistency_multiple_sections () =
  let _, t = consistency_fixture Shared_segment.Log_based in
  ignore (exercise t);
  Shared_segment.acquire t;
  Shared_segment.write_word t ~off:0 42;
  let s = Shared_segment.release t in
  check "second section sends only its update" 1 s.Shared_segment.words_sent;
  check "consumer updated" 42 (Shared_segment.consumer_word t ~off:0);
  check_bool "replica consistent" true (Shared_segment.replica_consistent t)

let test_consistency_log_cheaper_for_sparse_updates () =
  (* one word per page across 2 pages: twin/diff pays twinning+scanning
     whole pages, log-based sends exactly the two records *)
  let _, twin = consistency_fixture Shared_segment.Twin_diff in
  let _, lg = consistency_fixture Shared_segment.Log_based in
  let run t =
    Shared_segment.acquire t;
    Shared_segment.write_word t ~off:0 1;
    Shared_segment.write_word t ~off:4096 2;
    (Shared_segment.release t).Shared_segment.release_cycles
  in
  let twin_cycles = run twin in
  let log_cycles = run lg in
  check_bool
    (Printf.sprintf "log-based release cheaper (%d < %d)" log_cycles
       twin_cycles)
    true (log_cycles < twin_cycles)

let prop_consistency_protocols_agree =
  QCheck.Test.make ~name:"twin/diff and log-based produce equal replicas"
    ~count:30
    QCheck.(
      list_of_size
        (Gen.int_range 1 40)
        (pair (int_bound 2047) (int_bound 9999)))
    (fun writes ->
      let _, twin = consistency_fixture Shared_segment.Twin_diff in
      let _, lg = consistency_fixture Shared_segment.Log_based in
      let run t =
        Shared_segment.acquire t;
        List.iter (fun (w, v) -> Shared_segment.write_word t ~off:(w * 4) v)
          writes;
        ignore (Shared_segment.release t)
      in
      run twin;
      run lg;
      Shared_segment.replica_consistent twin
      && Shared_segment.replica_consistent lg
      && List.for_all
           (fun (w, _) ->
             Shared_segment.consumer_word twin ~off:(w * 4)
             = Shared_segment.consumer_word lg ~off:(w * 4))
           writes)

let suites =
  [
    ( "tools.watchpoint",
      [
        Alcotest.test_case "hits" `Quick test_watchpoint_hits;
        Alcotest.test_case "range overlap" `Quick
          test_watchpoint_range_overlap;
        Alcotest.test_case "corruption finder" `Quick
          test_watchpoint_corruption;
      ] );
    ( "tools.debugger",
      [
        Alcotest.test_case "attach/detach" `Quick test_debugger_attach_detach;
        Alcotest.test_case "rejects logged region" `Quick
          test_debugger_rejects_logged_region;
      ] );
    ( "tools.reverse-exec",
      [
        Alcotest.test_case "time travel" `Quick test_reverse_exec_time_travel;
        QCheck_alcotest.to_alcotest prop_reverse_exec_seek_consistent;
        Alcotest.test_case "V1 run containers" `Quick
          test_reverse_exec_v1_runs;
        QCheck_alcotest.to_alcotest prop_reverse_exec_v1_seeks;
      ] );
    ( "tools.address-trace",
      [ Alcotest.test_case "trace and histogram" `Quick test_address_trace ] );
    ( "tools.output",
      [
        Alcotest.test_case "indexed stream" `Quick test_output_indexed_stream;
        Alcotest.test_case "direct-mapped" `Quick test_output_direct_mapped;
      ] );
    ( "consistency",
      [
        Alcotest.test_case "twin/diff" `Quick test_consistency_twin_diff;
        Alcotest.test_case "log-based" `Quick test_consistency_log_based;
        Alcotest.test_case "multiple sections" `Quick
          test_consistency_multiple_sections;
        Alcotest.test_case "log cheaper when sparse" `Quick
          test_consistency_log_cheaper_for_sparse_updates;
        QCheck_alcotest.to_alcotest prop_consistency_protocols_agree;
      ] );
  ]

(* {1 Snooped coherence (Section 2.6 hardware variant)} *)

let test_snooped_replica_always_current () =
  let _, t = consistency_fixture Shared_segment.Snooped in
  Shared_segment.acquire t;
  Shared_segment.write_word t ~off:0 11;
  Shared_segment.write_word t ~off:4096 22;
  (* the replica is coherent even before release: the snoop applied the
     records as they crossed the bus *)
  check "replica current mid-section" 11
    (Shared_segment.consumer_word t ~off:0);
  let s = Shared_segment.release t in
  check_bool "replica consistent" true (Shared_segment.replica_consistent t);
  check "nothing sent at release" 0 s.Shared_segment.words_sent

let test_snooped_release_nearly_free () =
  let _, snooped = consistency_fixture Shared_segment.Snooped in
  let _, log = consistency_fixture Shared_segment.Log_based in
  let run t =
    Shared_segment.acquire t;
    for i = 0 to 63 do
      Shared_segment.write_word t ~off:(i * 8) i
    done;
    (Shared_segment.release t).Shared_segment.release_cycles
  in
  let snoop_cycles = run snooped in
  let log_cycles = run log in
  check_bool
    (Printf.sprintf "snooped release cheaper (%d < %d)" snoop_cycles
       log_cycles)
    true (snoop_cycles < log_cycles)

let snooped_suite =
  ( "consistency.snooped",
    [
      Alcotest.test_case "replica always current" `Quick
        test_snooped_replica_always_current;
      Alcotest.test_case "release nearly free" `Quick
        test_snooped_release_nearly_free;
    ] )

let suites = suites @ [ snooped_suite ]

(* {1 Log redundancy analysis (Section 2.7)} *)

let test_log_stats_redundancy () =
  let k, sp = boot () in
  let seg, region, ls = logged_region k in
  let base = Kernel.bind k sp region in
  (* a hot temporary written 5 times, two cold locations once each *)
  for i = 1 to 5 do
    Kernel.write_word k sp (base + 0x20) i
  done;
  Kernel.write_word k sp (base + 0x40) 1;
  Kernel.write_word k sp (base + 0x60) 2;
  let s = Log_stats.summarize k ~watched:seg ~log:ls in
  check "records" 7 s.Log_stats.records;
  check "distinct" 3 s.Log_stats.distinct_locations;
  check "redundant" 4 s.Log_stats.redundant;
  Alcotest.(check (list (pair int int))) "hot spot identified"
    [ (0x20, 5) ]
    (Log_stats.top_rewritten k ~watched:seg ~log:ls);
  ignore region

let test_log_stats_empty () =
  let k, sp = boot () in
  let seg, region, ls = logged_region k in
  ignore (Kernel.bind k sp region);
  let s = Log_stats.summarize k ~watched:seg ~log:ls in
  check "no records" 0 s.Log_stats.records;
  Alcotest.(check (float 0.001)) "zero ratio" 0. s.Log_stats.redundancy_ratio

let log_stats_suite =
  ( "tools.log-stats",
    [
      Alcotest.test_case "redundancy" `Quick test_log_stats_redundancy;
      Alcotest.test_case "empty log" `Quick test_log_stats_empty;
    ] )

let suites = suites @ [ log_stats_suite ]
