open Lvm_vm
module Repl = Lvm_repl
module Fault = Lvm_fault.Fault
module Plan = Lvm_fault.Plan

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg ?(replicas = 2) ?obs () =
  { Repl.Config.default with replicas; obs }

let value j idx = ((j * 97) + (idx * 13) + 5) land 0xFFFFFF

let txn cl j =
  let keys = Repl.keys cl in
  let writes = [ (j mod keys, value j 0); ((j * 7 + 3) mod keys, value j 1) ]
  in
  (match Repl.exec cl ~writes with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("exec: " ^ Lvm.Lvm_error.to_string e));
  writes

let run_txns ?(gap = 3) cl ~model n =
  for j = 0 to n - 1 do
    List.iter (fun (k, v) -> model.(k) <- v) (txn cl j);
    Repl.step ~ticks:gap cl
  done

let expect_standby cl i ~model ~what =
  for key = 0 to Repl.keys cl - 1 do
    if Repl.replica_read cl i key <> model.(key) then
      Alcotest.failf "%s: replica %d key %d: got %d want %d" what i key
        (Repl.replica_read cl i key)
        model.(key)
  done

(* {1 Streaming} *)

let test_basic_streaming () =
  let cl = Repl.create (cfg ()) in
  let model = Array.make (Repl.keys cl) 0 in
  run_txns cl ~model 8;
  check_bool "converges" true (Repl.sync cl);
  expect_standby cl 0 ~model ~what:"replica 0";
  expect_standby cl 1 ~model ~what:"replica 1";
  let s = Repl.stats cl in
  check "no failover" 1 s.Repl.s_epoch;
  check_bool "frames flowed" true (s.Repl.frames_sent > 0);
  check_bool "acks flowed" true (s.Repl.acks > 0);
  check "nothing dropped without a plan" 0 s.Repl.frames_dropped;
  (* replicas answer reads without ever executing a transaction *)
  check "replica serves committed value" model.(3) (Repl.replica_read cl 0 3)

let test_tail_shipping () =
  (* group commit leaves a window of unforced WAL; the bounded tail
     ships it ahead of the force so standby lag stays small *)
  let cl = Repl.create { (cfg ()) with group = 4 } in
  let model = Array.make (Repl.keys cl) 0 in
  run_txns cl ~model 6;
  check_bool "converges with unforced tail" true (Repl.sync cl);
  check_bool "tail was shipped" true (Repl.replica_applied cl 0 > 0)

(* {1 The low-water rule} *)

let drop_all_frames () =
  (* half-open link: primary->replica traffic is lost, acks/hellos
     still arrive, so the peers stay attached *)
  Plan.create
    [ { Plan.site = Fault.Net_frame; trigger = Plan.Every 1;
        fault = Fault.Net_drop } ]

let drop_everything () =
  Plan.create
    [ { Plan.site = Fault.Net_frame; trigger = Plan.Every 1;
        fault = Fault.Net_drop };
      { Plan.site = Fault.Net_ack; trigger = Plan.Every 1;
        fault = Fault.Net_drop } ]

(* One transaction charges ~40 cost-model WAL bytes; the RAM disk's
   truncation threshold is 12288, so a few hundred transactions are
   enough to make it want to recycle. *)
let gate_txns = 400

let test_ack_gated_recycling () =
  let cl = Repl.create (cfg ()) in
  let model = Array.make (Repl.keys cl) 0 in
  (* partition the data links: the replicas keep helloing over the
     intact ack links, so they stay attached — but can never ack *)
  Repl.set_net_plan cl (Some (drop_all_frames ()));
  run_txns ~gap:1 cl ~model gate_txns;
  let s = Repl.stats cl in
  check_bool "replicas still attached" true (Repl.replica_attached cl 0);
  check "unacked bytes are never recycled" 0 s.Repl.s_base;
  check_bool "the log grew far past the truncation threshold" true
    (s.Repl.s_stream_end > 12_288);
  (* heal; the replicas catch up and ack, freeing the gate *)
  Repl.set_net_plan cl None;
  check_bool "catch-up converges" true (Repl.sync cl);
  List.iter (fun (k, v) -> model.(k) <- v) (txn cl (gate_txns + 1));
  List.iter (fun (k, v) -> model.(k) <- v) (txn cl (gate_txns + 2));
  let s' = Repl.stats cl in
  check_bool "recycling resumed once acked" true (s'.Repl.s_base > 0);
  check_bool "still converges" true (Repl.sync cl)

let test_detach_frees_the_gate () =
  let cl = Repl.create (cfg ~replicas:1 ()) in
  let model = Array.make (Repl.keys cl) 0 in
  (* a full partition: the primary hears nothing at all *)
  Repl.set_net_plan cl (Some (drop_everything ()));
  run_txns ~gap:12 cl ~model 12;
  check_bool "silent replica detached" true
    (not (Repl.replica_attached cl 0));
  (* with the gate freed, the log recycles while partitioned *)
  for j = 12 to gate_txns do
    List.iter (fun (k, v) -> model.(k) <- v) (txn cl j)
  done;
  let s = Repl.stats cl in
  check_bool "detached replica cannot wedge recycling" true
    (s.Repl.s_base > 0);
  (* heal: its history starts before the recycled base, so it resyncs *)
  Repl.set_net_plan cl None;
  check_bool "resync converges" true (Repl.sync cl);
  check_bool "full-state resync used" true ((Repl.stats cl).Repl.resyncs >= 1);
  expect_standby cl 0 ~model ~what:"after resync"

(* {1 Faulty transport} *)

let test_drop_retransmit () =
  let plan =
    Plan.create ~seed:11
      [ { Plan.site = Fault.Net_frame; trigger = Plan.Every 3;
          fault = Fault.Net_drop } ]
  in
  let cl = Repl.create ~plan (cfg ()) in
  let model = Array.make (Repl.keys cl) 0 in
  run_txns cl ~model 10;
  check_bool "converges despite drops" true (Repl.sync cl);
  let s = Repl.stats cl in
  check_bool "drops happened" true (s.Repl.frames_dropped > 0);
  check_bool "retransmission covered the gaps" true (s.Repl.retransmits > 0);
  expect_standby cl 0 ~model ~what:"after drops";
  expect_standby cl 1 ~model ~what:"after drops"

let test_dup_reorder_idempotent () =
  let plan =
    Plan.create ~seed:13
      [ { Plan.site = Fault.Net_frame; trigger = Plan.Every 3;
          fault = Fault.Net_dup };
        { Plan.site = Fault.Net_frame; trigger = Plan.Every 4;
          fault = Fault.Net_reorder };
        { Plan.site = Fault.Net_ack; trigger = Plan.Every 5;
          fault = Fault.Net_dup } ]
  in
  let cl = Repl.create ~plan (cfg ()) in
  let model = Array.make (Repl.keys cl) 0 in
  run_txns cl ~model 10;
  check_bool "converges despite dup/reorder" true (Repl.sync cl);
  let s = Repl.stats cl in
  check_bool "dups happened" true (s.Repl.frames_duped > 0);
  check_bool "reorders happened" true (s.Repl.frames_reordered > 0);
  (* position-keyed application: duplicated and overtaken frames are
     dropped or re-acked, never applied twice *)
  expect_standby cl 0 ~model ~what:"after dup/reorder";
  expect_standby cl 1 ~model ~what:"after dup/reorder"

let test_delay_convergence () =
  let plan =
    Plan.create ~seed:17
      [ { Plan.site = Fault.Net_frame; trigger = Plan.Every 2;
          fault = Fault.Net_delay { ticks = 9 } } ]
  in
  let cl = Repl.create ~plan (cfg ()) in
  let model = Array.make (Repl.keys cl) 0 in
  run_txns cl ~model 8;
  check_bool "converges despite delays" true (Repl.sync cl);
  check_bool "delays happened" true ((Repl.stats cl).Repl.frames_delayed > 0)

(* {1 Failure detection and promotion} *)

let test_failure_detector_backoff () =
  let cl = Repl.create (cfg ()) in
  let model = Array.make (Repl.keys cl) 0 in
  run_txns cl ~model 4;
  check_bool "pre-kill convergence" true (Repl.sync cl);
  Repl.kill_primary cl;
  Repl.step ~ticks:250 cl;
  check_bool "detector noticed the silence" true
    (not (Repl.replica_connected cl 0));
  let hellos = (Repl.stats cl).Repl.hellos in
  check_bool "reconnect attempts made" true (hellos >= 2);
  (* capped exponential backoff: with timeout 12 and cap 8, 250 dead
     ticks admit only a handful of hellos per replica — far fewer than
     the ~20 an unthrottled detector would send *)
  check_bool "hellos backed off" true (hellos <= 12);
  check_bool "disconnects counted" true
    ((Repl.stats cl).Repl.disconnects >= 2)

let test_promotion_serves_committed_prefix () =
  let cl = Repl.create (cfg ()) in
  let model = Array.make (Repl.keys cl) 0 in
  run_txns cl ~model 6;
  check_bool "pre-kill convergence" true (Repl.sync cl);
  (* everything acked: the promoted replica must serve the full model *)
  Repl.kill_primary cl;
  Repl.step ~ticks:6 cl;
  let p = Repl.promote cl in
  check "epoch bumped" 2 Repl.(epoch cl);
  check "one promotion" 1 (Repl.stats cl).Repl.promotions;
  for key = 0 to Repl.keys cl - 1 do
    if Repl.read cl key <> model.(key) then
      Alcotest.failf "promoted primary key %d: got %d want %d" key
        (Repl.read cl key) model.(key)
  done;
  check_bool "failover time measured" true (p.Repl.failover_ticks > 0);
  (* double recovery is a no-op *)
  let before = Array.init (Repl.keys cl) (Repl.read cl) in
  Repl.rerecover cl;
  check_bool "second recovery idempotent" true
    (before = Array.init (Repl.keys cl) (Repl.read cl))

let test_promotion_drops_unacked_tail_consistently () =
  (* partition, commit more transactions nobody receives, kill: the
     promoted replica serves the last replicated prefix, and serves it
     atomically (never a torn transaction) *)
  let cl = Repl.create (cfg ()) in
  let model = Array.make (Repl.keys cl) 0 in
  run_txns cl ~model 5;
  check_bool "pre-partition convergence" true (Repl.sync cl);
  let replicated = Array.copy model in
  Repl.set_net_plan cl (Some (drop_all_frames ()));
  run_txns cl ~model 3 (* lost forever: the primary dies unreplicated *);
  Repl.kill_primary cl;
  Repl.set_net_plan cl None;
  Repl.step ~ticks:4 cl;
  ignore (Repl.promote cl);
  for key = 0 to Repl.keys cl - 1 do
    if Repl.read cl key <> replicated.(key) then
      Alcotest.failf "promoted primary key %d: got %d want %d (stale)" key
        (Repl.read cl key) replicated.(key)
  done

let test_failover_epoch_fencing_and_catchup () =
  let cl = Repl.create (cfg ~replicas:3 ()) in
  let model = Array.make (Repl.keys cl) 0 in
  run_txns cl ~model 6;
  check_bool "pre-kill convergence" true (Repl.sync cl);
  Repl.kill_primary cl;
  Repl.step ~ticks:4 cl;
  let p = Repl.promote cl in
  (* the new primary serves fresh transactions; the two surviving
     standbys re-attach (stale-epoch traffic fenced or resynced) and
     converge on the new stream *)
  let model2 = Array.copy model in
  for j = 100 to 104 do
    let writes = [ (j mod Repl.keys cl, value j 2) ] in
    (match Repl.exec cl ~writes with
    | Ok () -> List.iter (fun (k, v) -> model2.(k) <- v) writes
    | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
    Repl.step ~ticks:2 cl
  done;
  check_bool "survivors converge on the new primary" true (Repl.sync cl);
  for i = 0 to 2 do
    if Repl.promoted cl <> Some i then
      expect_standby cl i ~model:model2 ~what:"post-failover"
  done;
  check "epoch bumped" 2 p.Repl.new_epoch;
  check_bool "promoted replica excluded from standbys" true
    (Repl.promoted cl <> None)

let test_replica_restart_catchup () =
  let cl = Repl.create (cfg ()) in
  let model = Array.make (Repl.keys cl) 0 in
  run_txns cl ~model 6;
  check_bool "initial convergence" true (Repl.sync cl);
  Repl.kill_replica cl 1;
  run_txns cl ~model 4;
  Repl.restart_replica cl 1;
  check_bool "restart catch-up converges" true (Repl.sync cl);
  check_bool "restart re-attached via hello" true
    ((Repl.stats cl).Repl.hellos >= 1);
  expect_standby cl 1 ~model ~what:"after restart"

(* {1 Determinism and the sweep} *)

let test_deterministic_runs () =
  let drive () =
    let plan =
      Plan.create ~seed:99
        [ { Plan.site = Fault.Net_frame; trigger = Plan.With_probability 0.2;
            fault = Fault.Net_drop };
          { Plan.site = Fault.Net_ack; trigger = Plan.With_probability 0.1;
            fault = Fault.Net_dup } ]
    in
    let cl = Repl.create ~plan (cfg ()) in
    let model = Array.make (Repl.keys cl) 0 in
    run_txns cl ~model 8;
    ignore (Repl.sync cl);
    Repl.stats cl
  in
  check_bool "same seed, identical run" true (drive () = drive ())

let test_sweep_smoke () =
  let o = Lvm_tpc.Crash_sweep.run_repl ~txns:6 ~kill_points:8 ~fault_only:2 ()
  in
  Alcotest.(check (list string)) "no replication invariant violations" []
    o.Lvm_tpc.Crash_sweep.failures;
  check "all schedules ran" 10 o.Lvm_tpc.Crash_sweep.points;
  check "kills killed" 8 o.Lvm_tpc.Crash_sweep.crashed

let test_config_validation () =
  let err name e f = Alcotest.check_raises name (Error.Lvm_error e) f in
  let range what value =
    Error.Out_of_range { op = "Repl.create"; what; value }
  in
  err "replicas" (range "replicas" 0) (fun () ->
      ignore (Repl.create { (cfg ()) with replicas = 0 }));
  err "timeout" (range "timeout" 0) (fun () ->
      ignore (Repl.create { (cfg ()) with timeout = 0 }));
  err "timeout above detach" (range "timeout" 97) (fun () ->
      ignore (Repl.create { (cfg ()) with timeout = 97 }));
  err "size"
    (Error.Invalid
       { op = "Repl.create"; reason = "size must be a positive word multiple" })
    (fun () -> ignore (Repl.create { (cfg ()) with size = 30 }));
  (* invalid keys surface as typed results, not exceptions *)
  let cl = Repl.create (cfg ()) in
  (match Repl.exec cl ~writes:[ (Repl.keys cl, 1) ] with
  | Error (Lvm.Lvm_error.Invalid_key { key }) -> check "key" (Repl.keys cl) key
  | _ -> Alcotest.fail "expected Invalid_key")

let test_obs_counters () =
  let obs = Lvm_obs.Ctx.create () in
  let cl = Repl.create (cfg ~obs ()) in
  let model = Array.make (Repl.keys cl) 0 in
  run_txns cl ~model 4;
  ignore (Repl.sync cl);
  let snap = Lvm_obs.Ctx.snapshot obs in
  check_bool "repl.frames_sent in shared ctx" true
    (Lvm_obs.Snapshot.get snap "repl.frames_sent" > 0);
  check_bool "repl.acks in shared ctx" true
    (Lvm_obs.Snapshot.get snap "repl.acks" > 0);
  check_bool "lag histogram populated" true
    (List.exists
       (fun h -> Lvm_obs.Histogram.name h = "repl.lag_bytes"
                 && Lvm_obs.Histogram.count h > 0)
       (Lvm_obs.Ctx.histograms obs))

(* {1 Satellite: log-seal edge cases}

   [Lvm_log.seal] under the extent ring: sealing an empty active extent
   (and hence sealing twice in one epoch) is a guaranteed no-op with
   defined stats. *)

let boot_log () =
  let k = Kernel.create () in
  let sp = Kernel.create_space k in
  let page = Lvm_machine.Addr.page_size in
  let seg = Kernel.create_segment k ~size:page in
  let region = Kernel.create_region k seg in
  let log = Lvm_log.create ~extent_pages:1 k ~size:(4 * page) in
  Kernel.set_region_log k region (Some (Lvm_log.segment log));
  let base = Kernel.bind k sp region in
  (k, sp, base, log)

let test_seal_empty_noop () =
  let _, _, _, log = boot_log () in
  let before = Lvm_log.stats log in
  check "empty seal returns 0" 0 (Lvm_log.seal log);
  let after = Lvm_log.stats log in
  check "no extents recycled" before.Lvm_log.recycled_total
    after.Lvm_log.recycled_total;
  check "write_pos unchanged" before.Lvm_log.write_pos
    after.Lvm_log.write_pos;
  check "truncation lag unchanged" before.Lvm_log.truncation_lag
    after.Lvm_log.truncation_lag

let test_seal_double_noop () =
  let k, sp, base, log = boot_log () in
  for i = 0 to 63 do
    Kernel.write_word k sp (base + (i * 4)) (i + 1)
  done;
  let sealed = Lvm_log.seal log in
  check_bool "first seal recycles the records" true (sealed > 0);
  check "ring re-armed at the front" 0 (Lvm_log.stats log).Lvm_log.write_pos;
  let before = Lvm_log.stats log in
  (* second seal in the same epoch: nothing new was written *)
  check "double seal is a no-op" 0 (Lvm_log.seal log);
  check_bool "stats unchanged by double seal" true
    (Lvm_log.stats log = before);
  (* the ring is still consistent: a new epoch's records seal again *)
  for i = 0 to 63 do
    Kernel.write_word k sp (base + (i * 4)) (i + 100)
  done;
  check_bool "next epoch seals" true (Lvm_log.seal log > 0)

let test_seal_no_recycle_churn () =
  (* a seal-heavy caller (snapshot loop) must not leak extents: seal
     after every small batch, ring capacity never shrinks *)
  let k, sp, base, log = boot_log () in
  for epoch = 0 to 19 do
    for i = 0 to 7 do
      Kernel.write_word k sp (base + (i * 4)) ((epoch * 100) + i)
    done;
    ignore (Lvm_log.seal log);
    ignore (Lvm_log.seal log) (* idempotent mid-loop double seal *)
  done;
  let s = Lvm_log.stats log in
  check "every extent accounted" s.Lvm_log.extents
    (s.Lvm_log.active + s.Lvm_log.sealed + s.Lvm_log.recycled);
  check "ring empty after final seal" 0 s.Lvm_log.write_pos

let suites =
  [
    ( "repl",
      [
        Alcotest.test_case "basic streaming" `Quick test_basic_streaming;
        Alcotest.test_case "unforced tail shipped" `Quick test_tail_shipping;
        Alcotest.test_case "ack-gated recycling" `Quick
          test_ack_gated_recycling;
        Alcotest.test_case "detach frees the gate" `Quick
          test_detach_frees_the_gate;
        Alcotest.test_case "drop and retransmit" `Quick test_drop_retransmit;
        Alcotest.test_case "dup/reorder idempotent" `Quick
          test_dup_reorder_idempotent;
        Alcotest.test_case "delay convergence" `Quick test_delay_convergence;
        Alcotest.test_case "failure detector backoff" `Quick
          test_failure_detector_backoff;
        Alcotest.test_case "promotion serves committed prefix" `Quick
          test_promotion_serves_committed_prefix;
        Alcotest.test_case "promotion drops unreplicated tail" `Quick
          test_promotion_drops_unacked_tail_consistently;
        Alcotest.test_case "failover fencing and catch-up" `Quick
          test_failover_epoch_fencing_and_catchup;
        Alcotest.test_case "replica restart catch-up" `Quick
          test_replica_restart_catchup;
        Alcotest.test_case "deterministic runs" `Quick test_deterministic_runs;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "obs counters" `Quick test_obs_counters;
        Alcotest.test_case "failover sweep smoke" `Slow test_sweep_smoke;
      ] );
    ( "repl.seal",
      [
        Alcotest.test_case "empty seal no-op" `Quick test_seal_empty_noop;
        Alcotest.test_case "double seal no-op" `Quick test_seal_double_noop;
        Alcotest.test_case "seal-heavy loop keeps the ring" `Quick
          test_seal_no_recycle_churn;
      ] );
  ]
