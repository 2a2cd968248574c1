(* Tests for the optimistic simulation library: events, queues, the
   synthetic workload of Figures 7/8, and TimeWarp correctness (sequential
   equivalence, rollback, anti-messages). *)

open Lvm_sim

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Events and queues} *)

let ev ?(time = 0) ?(dst = 0) ?(payload = 0) ?(src = 0) ?(send_time = 0) uid =
  { Event.time; dst; payload; src; send_time; uid }

let test_event_order () =
  check_bool "time dominates" true
    (Event.compare (ev ~time:1 ~src:9 5) (ev ~time:2 ~src:0 1) < 0);
  check_bool "equal events" true (Event.compare (ev 3) (ev 3) = 0);
  check_bool "uid breaks ties" true (Event.compare (ev 1) (ev 2) < 0)

let prop_event_order_antisymmetric =
  let gen =
    QCheck.Gen.(
      let* time = int_bound 50 in
      let* dst = int_bound 5 in
      let* payload = int_bound 5 in
      let* src = int_bound 5 in
      let* uid = int_bound 100 in
      return { Event.time; dst; payload; src; send_time = 0; uid })
  in
  let arb = QCheck.make ~print:(Format.asprintf "%a" Event.pp) gen in
  QCheck.Test.make ~name:"event order antisymmetric" ~count:300
    (QCheck.pair arb arb) (fun (a, b) ->
      Event.compare a b = -Event.compare b a)

let test_queue_ordering () =
  let q =
    List.fold_left Event_queue.add Event_queue.empty
      [ ev ~time:5 1; ev ~time:1 2; ev ~time:3 3 ]
  in
  check "size" 3 (Event_queue.size q);
  (match Event_queue.min q with
  | Some e -> check "min is earliest" 1 e.Event.time
  | None -> Alcotest.fail "empty");
  Alcotest.(check (option int)) "min_time" (Some 1) (Event_queue.min_time q);
  let times = List.map (fun e -> e.Event.time) (Event_queue.to_list q) in
  Alcotest.(check (list int)) "ascending" [ 1; 3; 5 ] times

let test_queue_remove_uid () =
  let q =
    List.fold_left Event_queue.add Event_queue.empty
      [ ev ~time:5 1; ev ~time:1 2 ]
  in
  (match Event_queue.remove_uid q ~uid:1 with
  | Some (e, q') ->
    check "removed event" 5 e.Event.time;
    check "one left" 1 (Event_queue.size q')
  | None -> Alcotest.fail "uid 1 should be present");
  check_bool "missing uid" true (Event_queue.remove_uid q ~uid:99 = None)

(* {1 Synthetic workload (Figures 7/8 shape)} *)

let params ?(events = 400) ?(c = 512) ?(s = 64) ?(w = 2) () =
  { Synthetic.default_params with Synthetic.events; c; s; w }

let test_synthetic_lvm_beats_copy () =
  let sp = Synthetic.speedup (params ~c:256 ~s:256 ~w:4 ()) in
  check_bool (Printf.sprintf "speedup %.2f > 1.3" sp) true (sp > 1.3)

let test_synthetic_speedup_decreases_with_c () =
  let s_small = Synthetic.speedup (params ~c:256 ~s:128 ~w:4 ()) in
  let s_large = Synthetic.speedup (params ~c:4096 ~s:128 ~w:4 ()) in
  check_bool
    (Printf.sprintf "speedup falls with compute (%.2f > %.2f)" s_small s_large)
    true (s_small > s_large);
  check_bool "large-c speedup near 1" true (s_large < 1.2 && s_large > 0.95)

let test_synthetic_speedup_grows_with_s () =
  let s32 = Synthetic.speedup (params ~c:512 ~s:32 ~w:1 ()) in
  let s256 = Synthetic.speedup (params ~c:512 ~s:256 ~w:1 ()) in
  check_bool
    (Printf.sprintf "bigger objects favor LVM (%.2f < %.2f)" s32 s256)
    true (s32 < s256)

let test_synthetic_overload_at_low_c () =
  let r =
    Synthetic.run (params ~events:2000 ~c:0 ~s:256 ~w:8 ())
      State_saving.Lvm_based
  in
  check_bool "logger overloaded" true (r.Synthetic.overloads > 0);
  let r' =
    Synthetic.run (params ~events:2000 ~c:512 ~s:256 ~w:8 ())
      State_saving.Lvm_based
  in
  check "no overload with compute" 0 r'.Synthetic.overloads

let test_synthetic_on_chip_no_overload () =
  let r =
    Synthetic.run ~hw:Lvm_machine.Logger.On_chip
      (params ~events:2000 ~c:0 ~s:256 ~w:8 ())
      State_saving.Lvm_based
  in
  check "on-chip never overloads" 0 r.Synthetic.overloads

let test_synthetic_page_protect_faults () =
  let r =
    Synthetic.run
      { (params ~events:500 ~c:256 ~s:64 ~w:2 ()) with
        Synthetic.checkpoint_interval = 100 }
      State_saving.Page_protect
  in
  check_bool "protect faults taken" true (r.Synthetic.protect_faults > 0)

let test_synthetic_records_counted () =
  let p = params ~events:100 ~c:300 ~s:64 ~w:3 () in
  let r = Synthetic.run p State_saving.Lvm_based in
  (* one marker plus w data writes per event *)
  check "records = events * (w+1)" (100 * 4) r.Synthetic.log_records

(* {1 TimeWarp} *)

let run_phold ~schedulers ~strategy ~objects ~population ~end_time =
  let app = Phold.app ~objects ~seed:7 () in
  let engine =
    Timewarp.create ~n_schedulers:schedulers ~strategy ~app ()
  in
  Phold.inject_population engine ~objects ~population ~seed:7;
  let result = Timewarp.run engine ~end_time in
  (engine, result)

let test_timewarp_sequential_baseline () =
  let _, r =
    run_phold ~schedulers:1 ~strategy:State_saving.Lvm_based ~objects:8
      ~population:6 ~end_time:150
  in
  check "no rollbacks with one scheduler" 0 r.Timewarp.total_rollbacks;
  check_bool "events committed" true (r.Timewarp.total_events_committed > 50);
  check "all processed events commit" r.Timewarp.total_events_processed
    r.Timewarp.total_events_committed

let test_timewarp_equivalence_lvm () =
  let e1, _ =
    run_phold ~schedulers:1 ~strategy:State_saving.Lvm_based ~objects:12
      ~population:8 ~end_time:200
  in
  let e4, r4 =
    run_phold ~schedulers:4 ~strategy:State_saving.Lvm_based ~objects:12
      ~population:8 ~end_time:200
  in
  Alcotest.(check (array int))
    "4-scheduler optimistic run commits the sequential execution"
    (Timewarp.state_vector e1) (Timewarp.state_vector e4);
  check_bool "4-way run committed something" true
    (r4.Timewarp.total_events_committed > 0)

let test_timewarp_equivalence_copy_vs_lvm () =
  let e_copy, _ =
    run_phold ~schedulers:3 ~strategy:State_saving.Copy_based ~objects:10
      ~population:6 ~end_time:200
  in
  let e_lvm, _ =
    run_phold ~schedulers:3 ~strategy:State_saving.Lvm_based ~objects:10
      ~population:6 ~end_time:200
  in
  Alcotest.(check (array int)) "state saving strategy is invisible"
    (Timewarp.state_vector e_copy) (Timewarp.state_vector e_lvm)

let test_timewarp_exercises_rollback () =
  (* a small batch window with many schedulers makes stragglers likely *)
  let _, r =
    run_phold ~schedulers:4 ~strategy:State_saving.Lvm_based ~objects:16
      ~population:12 ~end_time:400
  in
  check_bool
    (Printf.sprintf "rollbacks occurred (%d)" r.Timewarp.total_rollbacks)
    true
    (r.Timewarp.total_rollbacks > 0);
  check_bool "optimism overshoots" true
    (r.Timewarp.total_events_processed > r.Timewarp.total_events_committed)

let test_timewarp_event_conservation () =
  (* PHOLD conserves tokens: total committed events equal across runs *)
  let e1, r1 =
    run_phold ~schedulers:1 ~strategy:State_saving.Copy_based ~objects:9
      ~population:5 ~end_time:150
  in
  let _, r2 =
    run_phold ~schedulers:2 ~strategy:State_saving.Copy_based ~objects:9
      ~population:5 ~end_time:150
  in
  ignore e1;
  check "same committed count" r1.Timewarp.total_events_committed
    r2.Timewarp.total_events_committed;
  (* counters sum equals committed events *)
  let counter_sum = ref 0 in
  for obj = 0 to 8 do
    counter_sum := !counter_sum + Timewarp.read_state e1 ~obj ~word:1
  done;
  check "per-object counters sum to committed events"
    r1.Timewarp.total_events_committed !counter_sum

let prop_timewarp_equivalence =
  let gen =
    QCheck.Gen.(
      let* objects = int_range 4 14 in
      let* population = int_range 2 8 in
      let* schedulers = int_range 2 5 in
      let* end_time = int_range 60 250 in
      let* seed = int_bound 1000 in
      return (objects, population, schedulers, end_time, seed))
  in
  let print (o, p, s, e, seed) =
    Printf.sprintf "objects=%d pop=%d scheds=%d end=%d seed=%d" o p s e seed
  in
  QCheck.Test.make ~name:"optimistic == sequential (any shape)" ~count:15
    (QCheck.make ~print gen) (fun (objects, population, schedulers, end_time,
                                   seed) ->
      let app = Phold.app ~objects ~seed () in
      let run n strategy =
        let engine = Timewarp.create ~n_schedulers:n ~strategy ~app () in
        Phold.inject_population engine ~objects ~population ~seed;
        ignore (Timewarp.run engine ~end_time);
        Timewarp.state_vector engine
      in
      run 1 State_saving.Lvm_based = run schedulers State_saving.Lvm_based
      && run 1 State_saving.Lvm_based
         = run schedulers State_saving.Copy_based)

let suites =
  [
    ( "sim.event",
      [
        Alcotest.test_case "ordering" `Quick test_event_order;
        QCheck_alcotest.to_alcotest prop_event_order_antisymmetric;
      ] );
    ( "sim.queue",
      [
        Alcotest.test_case "ordering" `Quick test_queue_ordering;
        Alcotest.test_case "remove by uid" `Quick test_queue_remove_uid;
      ] );
    ( "sim.synthetic",
      [
        Alcotest.test_case "lvm beats copy" `Quick
          test_synthetic_lvm_beats_copy;
        Alcotest.test_case "speedup falls with c" `Quick
          test_synthetic_speedup_decreases_with_c;
        Alcotest.test_case "speedup grows with s" `Quick
          test_synthetic_speedup_grows_with_s;
        Alcotest.test_case "overload at low c" `Quick
          test_synthetic_overload_at_low_c;
        Alcotest.test_case "on-chip no overload" `Quick
          test_synthetic_on_chip_no_overload;
        Alcotest.test_case "page-protect faults" `Quick
          test_synthetic_page_protect_faults;
        Alcotest.test_case "record accounting" `Quick
          test_synthetic_records_counted;
      ] );
    ( "sim.timewarp",
      [
        Alcotest.test_case "sequential baseline" `Quick
          test_timewarp_sequential_baseline;
        Alcotest.test_case "4-way equals sequential" `Quick
          test_timewarp_equivalence_lvm;
        Alcotest.test_case "copy equals lvm" `Quick
          test_timewarp_equivalence_copy_vs_lvm;
        Alcotest.test_case "rollback exercised" `Quick
          test_timewarp_exercises_rollback;
        Alcotest.test_case "event conservation" `Quick
          test_timewarp_event_conservation;
        QCheck_alcotest.to_alcotest prop_timewarp_equivalence;
      ] );
  ]

(* {1 Queueing network (second workload)} *)

let run_queueing ~schedulers ~strategy ~stations ~customers ~end_time ~seed =
  let app = Queueing.app ~stations ~seed in
  let engine = Timewarp.create ~n_schedulers:schedulers ~strategy ~app () in
  Queueing.inject_customers engine ~stations ~customers ~seed;
  let r = Timewarp.run engine ~end_time in
  (engine, r)

let test_queueing_equivalence () =
  let e1, r1 =
    run_queueing ~schedulers:1 ~strategy:State_saving.Lvm_based ~stations:6
      ~customers:5 ~end_time:300 ~seed:3
  in
  let e3, r3 =
    run_queueing ~schedulers:3 ~strategy:State_saving.Lvm_based ~stations:6
      ~customers:5 ~end_time:300 ~seed:3
  in
  Alcotest.(check (array int)) "3-way equals sequential"
    (Timewarp.state_vector e1) (Timewarp.state_vector e3);
  check "same committed events" r1.Timewarp.total_events_committed
    r3.Timewarp.total_events_committed

let test_queueing_customer_conservation () =
  let e, _ =
    run_queueing ~schedulers:2 ~strategy:State_saving.Copy_based ~stations:5
      ~customers:4 ~end_time:250 ~seed:9
  in
  (* customers are queued, in service, or in flight as events: never more
     than the population is present at the stations *)
  let present = Queueing.customers_present e ~stations:5 in
  check_bool
    (Printf.sprintf "0 <= present (%d) <= population" present)
    true
    (present >= 0 && present <= 4);
  check_bool "work happened" true (Queueing.total_served e ~stations:5 > 10)

let test_queueing_rollbacks_occur () =
  let _, r =
    run_queueing ~schedulers:3 ~strategy:State_saving.Lvm_based ~stations:9
      ~customers:8 ~end_time:600 ~seed:5
  in
  check_bool "optimism exercised" true (r.Timewarp.total_rollbacks > 0)

let queueing_suite =
  ( "sim.queueing",
    [
      Alcotest.test_case "equivalence" `Quick test_queueing_equivalence;
      Alcotest.test_case "customer conservation" `Quick
        test_queueing_customer_conservation;
      Alcotest.test_case "rollbacks occur" `Quick test_queueing_rollbacks_occur;
    ] )

let suites = suites @ [ queueing_suite ]

(* {1 Conservative engine} *)

let test_conservative_equals_optimistic () =
  let app = Phold.app ~objects:10 ~seed:13 () in
  let cons = Conservative.create ~n_schedulers:3 ~app () in
  let opt =
    Timewarp.create ~n_schedulers:3 ~strategy:State_saving.Lvm_based ~app ()
  in
  List.iter
    (fun (time, dst, payload) ->
      Conservative.inject cons ~time ~dst ~payload;
      Timewarp.inject opt ~time ~dst ~payload)
    (Phold.population ~objects:10 ~population:6 ~seed:13);
  let rc = Conservative.run cons ~end_time:200 in
  let ro = Timewarp.run opt ~end_time:200 in
  Alcotest.(check (array int)) "conservative == optimistic"
    (Conservative.state_vector cons) (Timewarp.state_vector opt);
  check "conservative processes each event exactly once"
    ro.Timewarp.total_events_committed rc.Conservative.events_processed

let test_conservative_never_rolls_back () =
  let app = Queueing.app ~stations:6 ~seed:21 in
  let cons = Conservative.create ~n_schedulers:3 ~app () in
  Conservative.inject cons ~time:1 ~dst:0 ~payload:0;
  Conservative.inject cons ~time:2 ~dst:3 ~payload:1;
  let r = Conservative.run cons ~end_time:300 in
  check_bool "made progress" true (r.Conservative.events_processed > 20);
  check_bool "idles at barriers" true
    (r.Conservative.elapsed_cycles * 3 > r.Conservative.busy_cycles)

let test_optimism_beats_conservative_when_imbalanced () =
  (* with locality, optimistic schedulers run ahead instead of idling at
     every barrier — the paper's core argument for optimism *)
  let app = Phold.app ~objects:12 ~locality_pct:90 ~compute:400 ~seed:31 () in
  let cons = Conservative.create ~n_schedulers:4 ~app () in
  let opt =
    Timewarp.create ~n_schedulers:4 ~strategy:State_saving.Lvm_based ~app ()
  in
  List.iter
    (fun (time, dst, payload) ->
      Conservative.inject cons ~time ~dst ~payload;
      Timewarp.inject opt ~time ~dst ~payload)
    (Phold.population ~objects:12 ~population:8 ~seed:31);
  let rc = Conservative.run cons ~end_time:400 in
  let ro = Timewarp.run opt ~end_time:400 in
  Alcotest.(check (array int)) "same results"
    (Conservative.state_vector cons) (Timewarp.state_vector opt);
  check_bool
    (Printf.sprintf "optimistic faster (%d < %d)" ro.Timewarp.elapsed_cycles
       rc.Conservative.elapsed_cycles)
    true
    (ro.Timewarp.elapsed_cycles < rc.Conservative.elapsed_cycles)

let conservative_suite =
  ( "sim.conservative",
    [
      Alcotest.test_case "equals optimistic" `Quick
        test_conservative_equals_optimistic;
      Alcotest.test_case "never rolls back" `Quick
        test_conservative_never_rolls_back;
      Alcotest.test_case "optimism wins when imbalanced" `Quick
        test_optimism_beats_conservative_when_imbalanced;
    ] )

let suites = suites @ [ conservative_suite ]

(* {1 Save-slot regression}

   A plain ring allocator for copy-based saves can wrap into still-live
   slots once rollbacks waste positions, silently corrupting restores
   (found by the queueing soak). This pins the fix: a rollback-heavy
   copy-based run over many GVT epochs stays equivalent to sequential. *)

let test_copy_save_slots_survive_rollback_churn () =
  let app = Queueing.app ~stations:12 ~seed:4 in
  let run n =
    let e = Timewarp.create ~n_schedulers:n
        ~strategy:State_saving.Copy_based ~app () in
    Queueing.inject_customers e ~stations:12 ~customers:10 ~seed:4;
    let r = Timewarp.run e ~end_time:700 in
    (Timewarp.state_vector e, r.Timewarp.total_rollbacks)
  in
  let s1, _ = run 1 in
  let s4, rollbacks = run 4 in
  check_bool "run is rollback-heavy" true (rollbacks > 100);
  Alcotest.(check (array int)) "no save corruption under churn" s1 s4

let regression_suite =
  ( "sim.regressions",
    [
      Alcotest.test_case "save slots under rollback churn" `Quick
        test_copy_save_slots_survive_rollback_churn;
    ] )

let suites = suites @ [ regression_suite ]
