(* Tests for the public API facade (the paper's Table 1 shapes), global
   logging invariants as qcheck properties, and coverage of the smaller
   utility functions. *)

open Lvm_machine

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 The Table 1 facade} *)

let test_api_section_2_2_sequence () =
  (* the exact code sequence of Section 2.2 *)
  let k = Lvm.Api.create Lvm.Api.Config.default in
  let space = Lvm.Api.address_space k in
  let seg_a = Lvm.Api.std_segment k ~size:8192 in
  let reg_r = Lvm.Api.std_region k seg_a in
  let ls = Lvm.Api.log_segment k in
  Lvm.Api.log k reg_r ls;
  let base = Lvm.Api.bind k space reg_r in
  Lvm.Api.write_word k space ~vaddr:(base + 16) 42;
  check "write readable" 42 (Lvm.Api.read_word k space ~vaddr:(base + 16));
  check "write logged" 1 (Lvm.Log_reader.record_count k ls)

let test_api_source_segment_and_reset () =
  let k = Lvm.Api.create Lvm.Api.Config.default in
  let space = Lvm.Api.address_space k in
  let working = Lvm.Api.std_segment k ~size:4096 in
  let ckpt = Lvm.Api.std_segment k ~size:4096 in
  let reg = Lvm.Api.std_region k working in
  Lvm.Api.source_segment k ~dst:working ~src:ckpt;
  let base = Lvm.Api.bind k space reg in
  Lvm.Api.write_word k space ~vaddr:base 7;
  Lvm.Api.reset_deferred_copy k space ~start:base ~len:4096;
  check "reset restored source" 0 (Lvm.Api.read_word k space ~vaddr:base)

let test_api_unlog_and_set_logging () =
  let k = Lvm.Api.create Lvm.Api.Config.default in
  let space = Lvm.Api.address_space k in
  let seg = Lvm.Api.std_segment k ~size:4096 in
  let reg = Lvm.Api.std_region k seg in
  let ls = Lvm.Api.log_segment k in
  Lvm.Api.log k reg ls;
  let base = Lvm.Api.bind k space reg in
  Lvm.Api.write_word k space ~vaddr:base 1;
  Lvm.Api.set_logging k reg false;
  Lvm.Api.write_word k space ~vaddr:base 2;
  Lvm.Api.set_logging k reg true;
  Lvm.Api.unlog k reg;
  Lvm.Api.write_word k space ~vaddr:base 3;
  check "only the enabled-and-logged write" 1
    (Lvm.Log_reader.record_count k ls)

let test_api_manager_hook () =
  let k = Lvm.Api.create Lvm.Api.Config.default in
  let space = Lvm.Api.address_space k in
  let filled = ref 0 in
  let seg =
    Lvm.Api.std_segment ~manager:(fun _ _ -> incr filled) k ~size:8192
  in
  let reg = Lvm.Api.std_region k seg in
  let base = Lvm.Api.bind k space reg in
  ignore (Lvm.Api.read k space ~vaddr:base ~size:4);
  ignore (Lvm.Api.read k space ~vaddr:(base + 4096) ~size:4);
  check "manager called per page" 2 !filled

let test_api_compute_and_time () =
  let k = Lvm.Api.create Lvm.Api.Config.default in
  let t0 = Lvm.Api.time k in
  Lvm.Api.compute k 123;
  check "compute advances time" (t0 + 123) (Lvm.Api.time k)

(* {1 Global logging invariants (properties)} *)

(* Totality and order: every write to a logged region appears in the log
   exactly once, in program order, with the right value. *)
let prop_log_totality =
  QCheck.Test.make ~name:"log records = writes, in order" ~count:50
    QCheck.(
      list_of_size (Gen.int_range 1 120)
        (pair (int_bound 511) (int_bound 0xFFFF)))
    (fun writes ->
      let k = Lvm.Api.create Lvm.Api.Config.default in
      let space = Lvm.Api.address_space k in
      let seg = Lvm.Api.std_segment k ~size:4096 in
      let reg = Lvm.Api.std_region k seg in
      let ls = Lvm.Api.log_segment k ~size:(16 * Addr.page_size) in
      Lvm.Api.log k reg ls;
      let base = Lvm.Api.bind k space reg in
      List.iter
        (fun (w, v) -> Lvm.Api.write_word k space ~vaddr:(base + (w * 4)) v)
        writes;
      let logged =
        List.map
          (fun (r : Log_record.t) ->
            match Lvm.Log_reader.located k ~seg r with
            | -1 -> (-1, -1)
            | off -> (off / 4, r.Log_record.value))
          (Lvm.Log_reader.to_list k ls)
      in
      logged = writes)

(* Replaying the log onto the initial state reconstructs the final
   state (the foundation of every LVM use case). *)
let prop_log_replay_reconstructs =
  QCheck.Test.make ~name:"log replay reconstructs final state" ~count:50
    QCheck.(
      list_of_size (Gen.int_range 1 80)
        (pair (int_bound 255) (int_bound 0xFFFF)))
    (fun writes ->
      let k = Lvm.Api.create Lvm.Api.Config.default in
      let space = Lvm.Api.address_space k in
      let seg = Lvm.Api.std_segment k ~size:4096 in
      let reg = Lvm.Api.std_region k seg in
      let ls = Lvm.Api.log_segment k ~size:(16 * Addr.page_size) in
      Lvm.Api.log k reg ls;
      let base = Lvm.Api.bind k space reg in
      List.iter
        (fun (w, v) -> Lvm.Api.write_word k space ~vaddr:(base + (w * 4)) v)
        writes;
      let replayed = Array.make 256 0 in
      Lvm.Log_reader.iter k ls ~f:(fun ~off:_ r ->
          let off = Lvm.Log_reader.located k ~seg r in
          if off >= 0 then replayed.(off / 4) <- r.Log_record.value);
      let ok = ref true in
      for w = 0 to 255 do
        if Lvm.Api.read_word k space ~vaddr:(base + (w * 4)) <> replayed.(w) then
          ok := false
      done;
      !ok)

(* Timestamps are non-decreasing in log order. *)
let prop_log_timestamps_monotone =
  QCheck.Test.make ~name:"log timestamps non-decreasing" ~count:30
    QCheck.(
      list_of_size (Gen.int_range 2 60) (pair (int_bound 100) (int_bound 50)))
    (fun ops ->
      let k = Lvm.Api.create Lvm.Api.Config.default in
      let space = Lvm.Api.address_space k in
      let seg = Lvm.Api.std_segment k ~size:4096 in
      let reg = Lvm.Api.std_region k seg in
      let ls = Lvm.Api.log_segment k in
      Lvm.Api.log k reg ls;
      let base = Lvm.Api.bind k space reg in
      List.iter
        (fun (w, c) ->
          Lvm.Api.compute k c;
          Lvm.Api.write_word k space ~vaddr:(base + (w mod 256 * 4)) w)
        ops;
      let ts =
        List.map
          (fun (r : Log_record.t) -> r.Log_record.timestamp)
          (Lvm.Log_reader.to_list k ls)
      in
      List.sort compare ts = ts)

(* {1 Small utilities} *)

let test_addr_pp () =
  Alcotest.(check string) "hex print" "0x1a2b"
    (Format.asprintf "%a" Addr.pp 0x1a2b)

let test_perf_reset_and_copy () =
  let p = Perf.create () in
  p.Perf.log_records <- 5;
  let q = Perf.copy p in
  Perf.reset p;
  check "reset clears" 0 p.Perf.log_records;
  check "copy unaffected" 5 q.Perf.log_records;
  check_bool "pp renders" true
    (String.length (Format.asprintf "%a" Perf.pp q) > 10)

let test_physmem_byte_blits () =
  let m = Physmem.create ~frames:1 in
  let buf = Bytes.of_string "hello world!" in
  Physmem.blit_of_bytes m buf ~pos:0 ~dst:64 ~len:12;
  let out = Bytes.create 12 in
  Physmem.blit_to_bytes m ~src:64 out ~pos:0 ~len:12;
  Alcotest.(check string) "roundtrip" "hello world!" (Bytes.to_string out)

let test_bcopy_validation () =
  let m = Machine.create ~frames:4 () in
  Alcotest.check_raises "unaligned length"
    (Invalid_argument
       "Machine.bcopy: length must be a multiple of the word size")
    (fun () -> Machine.bcopy m ~src:0 ~dst:64 ~len:7)

let test_state_saving_strings () =
  Alcotest.(check string) "copy" "copy-based"
    (Lvm_sim.State_saving.to_string Lvm_sim.State_saving.Copy_based);
  Alcotest.(check string) "lvm" "lvm"
    (Lvm_sim.State_saving.to_string Lvm_sim.State_saving.Lvm_based);
  Alcotest.(check string) "pp" "page-protect"
    (Format.asprintf "%a" Lvm_sim.State_saving.pp
       Lvm_sim.State_saving.Page_protect)

let test_experiments_registry () =
  check_bool "all ids distinct" true
    (let ids =
       List.map
         (fun e -> e.Lvm_experiments.Experiments.id)
         Lvm_experiments.Experiments.all
     in
     List.sort_uniq compare ids = List.sort compare ids);
  check_bool "find hits" true
    (Lvm_experiments.Experiments.find "table2" <> None);
  check_bool "find misses" true
    (Lvm_experiments.Experiments.find "nope" = None);
  check "twenty experiments" 20
    (List.length Lvm_experiments.Experiments.all);
  check_bool "multicpu registered" true
    (Lvm_experiments.Experiments.find "multicpu" <> None)

let test_report_table_alignment () =
  let out =
    Format.asprintf "%t" (fun ppf ->
        Lvm_experiments.Report.table ppf ~header:[ "a"; "bb" ]
          [ [ "xxx"; "y" ]; [ "z" ] ])
  in
  check_bool "renders all rows" true
    (String.split_on_char '\n' out |> List.length >= 4)

let test_bank_layout_offsets () =
  let b = Lvm_tpc.Bank.layout ~branches:2 ~tellers:4 ~accounts:8 ~history:16
  in
  check "segment size" ((2 + 4 + 8 + 16) * 16) (Lvm_tpc.Bank.segment_bytes b);
  check "branch 0 balance" 4 (Lvm_tpc.Bank.branch_balance_off b 0);
  check "teller 0 balance" (2 * 16 + 4) (Lvm_tpc.Bank.teller_balance_off b 0);
  check "account 0 balance" ((2 + 4) * 16 + 4)
    (Lvm_tpc.Bank.account_balance_off b 0);
  check "history wraps" (Lvm_tpc.Bank.history_off b 0)
    (Lvm_tpc.Bank.history_off b 16);
  check "teller striping" 1 (Lvm_tpc.Bank.teller_branch b 1)

let test_address_trace_write_rate () =
  let k = Lvm.Api.create Lvm.Api.Config.default in
  let space = Lvm.Api.address_space k in
  let seg = Lvm.Api.std_segment k ~size:4096 in
  let reg = Lvm.Api.std_region k seg in
  let ls = Lvm.Api.log_segment k in
  Lvm.Api.log k reg ls;
  let base = Lvm.Api.bind k space reg in
  check_bool "no rate for empty trace" true
    (Lvm_tools.Address_trace.write_rate k ls = None);
  Lvm.Api.write_word k space ~vaddr:base 1;
  Lvm.Api.compute k 4000;
  Lvm.Api.write_word k space ~vaddr:base 2;
  (match Lvm_tools.Address_trace.write_rate k ls with
  | Some rate -> check_bool "plausible rate" true (rate > 0. && rate < 10.)
  | None -> Alcotest.fail "expected a rate")

let test_watchpoint_empty_log () =
  let k = Lvm.Api.create Lvm.Api.Config.default in
  let space = Lvm.Api.address_space k in
  let seg = Lvm.Api.std_segment k ~size:4096 in
  let reg = Lvm.Api.std_region k seg in
  let ls = Lvm.Api.log_segment k in
  Lvm.Api.log k reg ls;
  ignore (Lvm.Api.bind k space reg);
  ignore space;
  Alcotest.(check int) "no hits in empty log" 0
    (List.length (Lvm_tools.Watchpoint.hits k ~log:ls ~watched:seg ~off:0
                    ~len:4096))

let test_rvm_abort_overlapping_ranges () =
  let k = Lvm_vm.Kernel.create () in
  let sp = Lvm_vm.Kernel.create_space k in
  let r = Lvm_rvm.Rvm.make Lvm_rvm.Rvm.Config.default k sp ~size:4096 in
  Lvm_rvm.Rvm.begin_txn r;
  Lvm_rvm.Rvm.set_range r ~off:0 ~len:8;
  Lvm_rvm.Rvm.write_word r ~off:0 1;
  Lvm_rvm.Rvm.write_word r ~off:4 2;
  (* second overlapping range saves the already-modified values *)
  Lvm_rvm.Rvm.set_range r ~off:4 ~len:8;
  Lvm_rvm.Rvm.write_word r ~off:4 3;
  Lvm_rvm.Rvm.write_word r ~off:8 4;
  Lvm_rvm.Rvm.abort r;
  check "word 0 restored" 0 (Lvm_rvm.Rvm.read_word r ~off:0);
  check "word 1 restored" 0 (Lvm_rvm.Rvm.read_word r ~off:4);
  check "word 2 restored" 0 (Lvm_rvm.Rvm.read_word r ~off:8)

let suites =
  [
    ( "api.table1",
      [
        Alcotest.test_case "section 2.2 sequence" `Quick
          test_api_section_2_2_sequence;
        Alcotest.test_case "source segment + reset" `Quick
          test_api_source_segment_and_reset;
        Alcotest.test_case "unlog / set_logging" `Quick
          test_api_unlog_and_set_logging;
        Alcotest.test_case "manager hook" `Quick test_api_manager_hook;
        Alcotest.test_case "compute and time" `Quick test_api_compute_and_time;
      ] );
    ( "api.invariants",
      [
        QCheck_alcotest.to_alcotest prop_log_totality;
        QCheck_alcotest.to_alcotest prop_log_replay_reconstructs;
        QCheck_alcotest.to_alcotest prop_log_timestamps_monotone;
      ] );
    ( "api.utilities",
      [
        Alcotest.test_case "addr pp" `Quick test_addr_pp;
        Alcotest.test_case "perf reset/copy" `Quick test_perf_reset_and_copy;
        Alcotest.test_case "physmem byte blits" `Quick
          test_physmem_byte_blits;
        Alcotest.test_case "bcopy validation" `Quick test_bcopy_validation;
        Alcotest.test_case "state-saving strings" `Quick
          test_state_saving_strings;
        Alcotest.test_case "experiments registry" `Quick
          test_experiments_registry;
        Alcotest.test_case "report table" `Quick test_report_table_alignment;
        Alcotest.test_case "bank layout" `Quick test_bank_layout_offsets;
        Alcotest.test_case "address trace rate" `Quick
          test_address_trace_write_rate;
        Alcotest.test_case "watchpoint empty log" `Quick
          test_watchpoint_empty_log;
        Alcotest.test_case "rvm overlapping ranges" `Quick
          test_rvm_abort_overlapping_ranges;
      ] );
  ]
