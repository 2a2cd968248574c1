(* Determinism: the simulated machine is a pure function of its inputs —
   identical runs produce identical cycle counts, log contents and final
   states. This is what makes the reproduction's numbers repeatable
   bit-for-bit. *)

open Lvm_sim

let check = Alcotest.(check int)

let test_synthetic_deterministic () =
  let p = { Synthetic.default_params with Synthetic.events = 500 } in
  let a = Synthetic.run p State_saving.Lvm_based in
  let b = Synthetic.run p State_saving.Lvm_based in
  check "identical cycles" a.Synthetic.cycles b.Synthetic.cycles;
  check "identical records" a.Synthetic.log_records b.Synthetic.log_records

let test_timewarp_deterministic () =
  let run () =
    let app = Phold.app ~objects:10 ~seed:5 () in
    let engine =
      Timewarp.create ~n_schedulers:3 ~strategy:State_saving.Lvm_based ~app ()
    in
    Phold.inject_population engine ~objects:10 ~population:7 ~seed:5;
    let r = Timewarp.run engine ~end_time:250 in
    (r, Timewarp.state_vector engine)
  in
  let r1, s1 = run () in
  let r2, s2 = run () in
  Alcotest.(check (array int)) "identical states" s1 s2;
  check "identical elapsed cycles" r1.Timewarp.elapsed_cycles
    r2.Timewarp.elapsed_cycles;
  check "identical rollbacks" r1.Timewarp.total_rollbacks
    r2.Timewarp.total_rollbacks

let test_tpca_deterministic () =
  let run () =
    let k = Lvm_vm.Kernel.create () in
    let sp = Lvm_vm.Kernel.create_space k in
    let bank =
      Lvm_tpc.Bank.layout ~branches:2 ~tellers:10 ~accounts:50 ~history:64
    in
    let store =
      Lvm_tpc.Tpca.rlvm_store
        (Lvm_rvm.Rlvm.make Lvm_rvm.Rlvm.Config.default k sp ~size:(Lvm_tpc.Bank.segment_bytes bank))
    in
    Lvm_tpc.Tpca.setup store bank;
    let r = Lvm_tpc.Tpca.run ~seed:11 store bank ~txns:60 in
    (r.Lvm_tpc.Tpca.cycles, Lvm_tpc.Tpca.total_balance store bank)
  in
  let c1, b1 = run () in
  let c2, b2 = run () in
  check "identical cycles" c1 c2;
  check "identical balances" b1 b2

let test_logs_bit_identical () =
  let run () =
    let k = Lvm_vm.Kernel.create () in
    let sp = Lvm_vm.Kernel.create_space k in
    let seg = Lvm_vm.Kernel.create_segment k ~size:4096 in
    let region = Lvm_vm.Kernel.create_region k seg in
    let ls =
      Lvm_vm.Kernel.create_log_segment k
        ~size:(8 * Lvm_machine.Addr.page_size)
    in
    Lvm_vm.Kernel.set_region_log k region (Some ls);
    let base = Lvm_vm.Kernel.bind k sp region in
    for i = 0 to 99 do
      Lvm_vm.Kernel.compute k (i mod 7);
      Lvm_vm.Kernel.write_word k sp (base + (i * 4 mod 1024)) i
    done;
    List.map
      (Format.asprintf "%a" Lvm_machine.Log_record.pp)
      (Lvm.Log_reader.to_list k ls)
  in
  Alcotest.(check (list string)) "identical logs" (run ()) (run ())

(* The structured event trace is part of the deterministic surface too:
   same seed, same workload, byte-identical rendering. *)
let test_trace_bit_identical () =
  let run () =
    let app = Phold.app ~objects:8 ~seed:3 () in
    let (), collector =
      Lvm_obs.Collector.with_collector (fun () ->
          let engine =
            Timewarp.create ~n_schedulers:2 ~strategy:State_saving.Lvm_based
              ~app ()
          in
          Phold.inject_population engine ~objects:8 ~population:6 ~seed:3;
          ignore (Timewarp.run engine ~end_time:200))
    in
    List.map
      (Format.asprintf "%a" Lvm_obs.Trace.pp)
      (Lvm_obs.Collector.traces collector)
  in
  let t1 = run () and t2 = run () in
  Alcotest.(check (list string)) "identical traces" t1 t2;
  Alcotest.(check bool) "traces are non-trivial" true
    (List.exists (fun s -> String.length s > 0) t1)

(* Differential replay: the log is a complete record of every logged
   write, so replaying it through [Lvm.Log_reader] onto a pre-execution
   snapshot must reconstruct the final memory exactly — on one CPU and on
   four, where each CPU runs its own logged workload under the
   round-robin scheduler and the logger snoops them all. *)
let test_replay_reconstructs ~cpus () =
  let open Lvm_vm in
  let page = Lvm_machine.Addr.page_size in
  let seg_bytes = 2 * page in
  let words = seg_bytes / 4 in
  let k = Kernel.create ~cpus () in
  let per_cpu =
    Array.init cpus (fun cpu ->
        Kernel.set_cpu k cpu;
        let sp = Kernel.create_space k in
        let seg = Kernel.create_segment k ~size:seg_bytes in
        let region = Kernel.create_region k seg in
        let ls = Kernel.create_log_segment k ~size:(8 * page) in
        Kernel.set_region_log k region (Some ls);
        let base = Kernel.bind k sp region in
        (sp, seg, ls, base))
  in
  Kernel.set_cpu k 0;
  let snapshot seg =
    Array.init words (fun i -> Kernel.seg_read_raw k seg ~off:(i * 4) ~size:4)
  in
  let snaps = Array.map (fun (_, seg, _, _) -> snapshot seg) per_cpu in
  let iters = Array.make cpus 0 in
  let tasks =
    Array.init cpus (fun i () ->
        let sp, _, _, base = per_cpu.(i) in
        let n = iters.(i) in
        Kernel.compute k (n * (i + 3) mod 11);
        Kernel.write_word k sp
          (base + (n * 4 * (i + 1) mod seg_bytes))
          (((n * 97) + i) land 0xFFFFFFFF);
        iters.(i) <- n + 1;
        iters.(i) < 150)
  in
  Kernel.run_cpus k ~tasks;
  Array.iteri
    (fun i (_, seg, ls, _) ->
      let model = Array.copy snaps.(i) in
      Lvm.Log_reader.iter k ls ~f:(fun ~off:_ r ->
          if not r.Lvm_machine.Log_record.pre_image then begin
            Alcotest.(check int) "word-sized record" 4
              r.Lvm_machine.Log_record.size;
            match Lvm.Log_reader.located k ~seg r with
            | -1 -> Alcotest.fail "record did not locate to its segment"
            | off -> model.(off / 4) <- r.Lvm_machine.Log_record.value
          end);
      Alcotest.(check (array int))
        (Printf.sprintf "cpu %d replay reconstructs memory" i)
        (snapshot seg) model)
    per_cpu

(* The multi-CPU configuration is deterministic end to end: two
   identical 4-CPU shared-kernel runs produce byte-identical committed
   states and byte-identical structured event traces. *)
let test_timewarp_multicpu_deterministic () =
  let run () =
    let app = Phold.app ~objects:12 ~seed:9 () in
    let (states, elapsed), collector =
      Lvm_obs.Collector.with_collector (fun () ->
          let engine =
            Timewarp.create ~cpus:4 ~n_schedulers:4
              ~strategy:State_saving.Lvm_based ~app ()
          in
          Phold.inject_population engine ~objects:12 ~population:8 ~seed:9;
          let r = Timewarp.run engine ~end_time:250 in
          (Timewarp.state_vector engine, r.Timewarp.elapsed_cycles))
    in
    let traces =
      List.map
        (Format.asprintf "%a" Lvm_obs.Trace.pp)
        (Lvm_obs.Collector.traces collector)
    in
    (states, elapsed, traces)
  in
  let s1, e1, t1 = run () in
  let s2, e2, t2 = run () in
  Alcotest.(check (array int)) "identical states" s1 s2;
  check "identical elapsed cycles" e1 e2;
  Alcotest.(check (list string)) "identical traces" t1 t2

(* A log stream crossing several extent seams replays identically on a
   1-CPU and a 4-CPU boot: extent switches ride the same fault path on
   both, so the record stream (addresses, values, sizes — timestamps
   differ with the machine configuration), the replayed memory and the
   ring accounting all agree. *)
let extent_stream ~cpus =
  let open Lvm_vm in
  let page = Lvm_machine.Addr.page_size in
  let k = Kernel.create ~cpus () in
  let sp = Kernel.create_space k in
  let seg = Kernel.create_segment k ~size:page in
  let region = Kernel.create_region k seg in
  let log = Lvm_log.create ~extent_pages:1 k ~size:(4 * page) in
  let ls = Lvm_log.segment log in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  let snapshot () =
    Array.init (page / 4) (fun i ->
        Kernel.seg_read_raw k seg ~off:(i * 4) ~size:4)
  in
  let initial = snapshot () in
  let n = 900 (* 900 records span all four one-page extents: 3 seams *) in
  let iters = Array.make cpus 0 in
  let tasks =
    Array.init cpus (fun i () ->
        let j = iters.(i) in
        iters.(i) <- j + 1;
        (if i = 0 then
           Kernel.write_word k sp
             (base + (j * 28 mod page))
             (((j * 131) + 17) land 0xFFFFFFFF)
         else Kernel.compute k ((i + j) mod 5));
        iters.(i) < n)
  in
  Kernel.run_cpus k ~tasks;
  let records =
    List.rev
      (Lvm.Log_reader.fold k ls ~init:[] ~f:(fun acc ~off r ->
           let loc =
             Lvm.Log_reader.seg_offset k ~seg ~addr:r.Lvm_machine.Log_record.addr
           in
           Printf.sprintf "off=%d loc=%d v=%d sz=%d pre=%b" off loc
             r.Lvm_machine.Log_record.value r.Lvm_machine.Log_record.size
             r.Lvm_machine.Log_record.pre_image
           :: acc))
  in
  let model = Array.copy initial in
  Lvm.Log_reader.iter k ls ~f:(fun ~off:_ r ->
      if not r.Lvm_machine.Log_record.pre_image then
        match Lvm.Log_reader.located k ~seg r with
        | -1 -> Alcotest.fail "record did not locate"
        | off -> model.(off / 4) <- r.Lvm_machine.Log_record.value);
  Alcotest.(check (array int))
    (Printf.sprintf "%d-cpu replay reconstructs memory" cpus)
    (snapshot ()) model;
  let s = Lvm_log.stats log in
  Alcotest.(check bool) "crossed at least three seams" true
    (s.Lvm_log.switches >= 3);
  (records, s.Lvm_log.switches)

let test_extent_replay_cpus () =
  let r1, sw1 = extent_stream ~cpus:1 in
  let r4, sw4 = extent_stream ~cpus:4 in
  check "same extent switches" sw1 sw4;
  Alcotest.(check (list string)) "identical record streams" r1 r4

(* TPC-A with negative balances: signed arithmetic must round-trip the
   32-bit storage *)
let test_tpca_negative_balances () =
  let k = Lvm_vm.Kernel.create () in
  let sp = Lvm_vm.Kernel.create_space k in
  let bank =
    Lvm_tpc.Bank.layout ~branches:1 ~tellers:2 ~accounts:4 ~history:8
  in
  let store =
    Lvm_tpc.Tpca.rvm_store
      (Lvm_rvm.Rvm.make Lvm_rvm.Rvm.Config.default k sp ~size:(Lvm_tpc.Bank.segment_bytes bank))
  in
  Lvm_tpc.Tpca.setup store bank;
  ignore (Lvm_tpc.Tpca.run ~seed:2 store bank ~txns:40);
  (* the invariant holds regardless of the total's sign *)
  Alcotest.(check bool) "balances consistent under negatives" true
    (Lvm_tpc.Tpca.balance_invariant store bank)

let suites =
  [
    ( "determinism",
      [
        Alcotest.test_case "synthetic" `Quick test_synthetic_deterministic;
        Alcotest.test_case "timewarp" `Quick test_timewarp_deterministic;
        Alcotest.test_case "tpc-a" `Quick test_tpca_deterministic;
        Alcotest.test_case "logs bit-identical" `Quick
          test_logs_bit_identical;
        Alcotest.test_case "traces bit-identical" `Quick
          test_trace_bit_identical;
        Alcotest.test_case "replay reconstructs memory (1 cpu)" `Quick
          (test_replay_reconstructs ~cpus:1);
        Alcotest.test_case "replay reconstructs memory (4 cpus)" `Quick
          (test_replay_reconstructs ~cpus:4);
        Alcotest.test_case "timewarp 4-cpu deterministic" `Quick
          test_timewarp_multicpu_deterministic;
        Alcotest.test_case "extent stream replays on 1 and 4 cpus" `Quick
          test_extent_replay_cpus;
        Alcotest.test_case "tpc-a negative balances" `Quick
          test_tpca_negative_balances;
      ] );
  ]
