(* Tests for the sharded transactional store: local and cross-shard
   (two-phase-commit) execution, in-doubt recovery, backpressure, the
   workload driver's scheduling invariants and the shard-scaling
   figure. *)

module Store = Lvm_store.Store
module Workload = Lvm_store.Workload

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The result-typed read, unwrapped: any refusal here is a test bug. *)
let read st key =
  match Store.read st key with
  | Ok v -> v
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e)

let make ?(shards = 2) ?(keys = 32) () =
  Store.create { Store.Config.default with shards; keys; compute = 40 }

(* Booting a store is one machine plus its shards' regions and logs: it
   must not carry a table the size of the logger's whole PMT per shard
   machine. *)
let test_create_allocation () =
  let bytes =
    Test_util.allocated_bytes (fun () -> Store.create Store.Config.default)
  in
  check_bool
    (Printf.sprintf "%.0f bytes allocated by Store.create (4 x 1024)" bytes)
    true
    (bytes < 512. *. 1024.)

(* {1 Zipf sampler}

   The first 256 ranks at seed 1, as the binary-search sampler drew
   them before the guide table: every key a Zipfian workload draws, and
   so every simulated cycle, depends on these. *)

let zipf_1024_1_1 =
  [|
     2; 271; 2; 0; 7; 19; 914; 33; 57; 13; 0; 23; 0; 1; 1; 1;
     1; 13; 45; 42; 27; 170; 0; 39; 6; 3; 4; 13; 168; 6; 93; 455;
     54; 0; 0; 13; 12; 0; 0; 8; 0; 104; 11; 1; 735; 814; 0; 0;
     707; 230; 7; 23; 0; 14; 0; 389; 7; 57; 511; 1; 122; 14; 77; 191;
     11; 288; 2; 165; 71; 33; 0; 146; 4; 0; 66; 586; 110; 13; 0; 6;
     10; 612; 2; 76; 3; 59; 5; 0; 20; 3; 4; 13; 7; 7; 22; 0;
     1; 2; 9; 0; 10; 6; 42; 2; 29; 693; 33; 30; 22; 63; 0; 1;
     1; 354; 6; 423; 9; 27; 11; 309; 1; 0; 12; 0; 0; 63; 0; 0;
     1; 171; 0; 18; 19; 316; 377; 9; 122; 0; 2; 2; 1; 5; 12; 118;
     338; 1; 24; 0; 4; 0; 0; 0; 0; 0; 0; 0; 10; 28; 0; 30;
     30; 5; 1; 3; 53; 17; 18; 34; 1; 53; 0; 3; 0; 0; 284; 29;
     435; 11; 553; 0; 0; 10; 0; 24; 452; 2; 29; 57; 67; 0; 75; 463;
     0; 5; 302; 4; 1003; 161; 50; 2; 3; 94; 0; 73; 195; 0; 2; 320;
     41; 0; 1; 1; 1; 15; 0; 33; 511; 0; 1; 211; 10; 1; 37; 210;
     586; 99; 0; 0; 149; 7; 0; 0; 25; 0; 0; 153; 19; 15; 23; 0;
     15; 8; 129; 443; 3; 674; 37; 0; 2; 3; 414; 0; 188; 0; 3; 1;
  |]

let zipf_64_0 =
  [|
     17; 55; 19; 6; 28; 36; 63; 40; 44; 33; 6; 37; 3; 13; 14; 11;
     12; 33; 43; 42; 39; 52; 7; 42; 27; 22; 24; 33; 52; 27; 48; 59;
     44; 11; 11; 33; 32; 8; 11; 29; 8; 49; 32; 13; 62; 62; 7; 10;
     61; 54; 28; 37; 9; 33; 2; 58; 28; 44; 59; 11; 50; 33; 47; 53;
     32; 56; 19; 52; 46; 40; 1; 51; 23; 10; 46; 60; 49; 33; 1; 27;
     31; 60; 18; 47; 20; 45; 25; 9; 36; 20; 24; 33; 27; 28; 37; 5;
     11; 19; 30; 2; 31; 26; 42; 18; 39; 61; 40; 39; 37; 45; 3; 13;
     13; 57; 26; 58; 30; 39; 32; 56; 13; 5; 32; 10; 7; 45; 7; 2;
     12; 52; 9; 36; 36; 56; 57; 30; 50; 6; 19; 18; 15; 24; 32; 50;
     57; 15; 38; 2; 24; 8; 10; 6; 0; 6; 5; 8; 31; 39; 10; 39;
     39; 25; 13; 21; 44; 35; 35; 40; 16; 44; 4; 22; 1; 3; 56; 39;
     58; 31; 60; 4; 5; 30; 3; 38; 59; 17; 39; 44; 46; 10; 46; 59;
     6; 25; 56; 22; 63; 52; 43; 19; 21; 48; 9; 46; 53; 5; 19; 56;
     42; 7; 14; 12; 16; 34; 6; 40; 59; 8; 15; 54; 30; 16; 41; 54;
     60; 48; 11; 2; 51; 28; 6; 5; 38; 5; 2; 52; 36; 34; 37; 9;
     34; 29; 50; 59; 22; 61; 41; 10; 19; 21; 58; 9; 53; 9; 22; 14;
  |]

let test_zipf_pinned_ranks () =
  List.iter
    (fun (n, theta, want) ->
      let z = Workload.Zipf.create ~n ~theta in
      let rng = Lvm_fault.Splitmix.create ~seed:1 in
      let got = Array.init 256 (fun _ -> Workload.Zipf.sample z rng) in
      Alcotest.(check (array int))
        (Printf.sprintf "ranks for (%d, %g)" n theta)
        want got)
    [ (1024, 1.1, zipf_1024_1_1); (64, 0.0, zipf_64_0) ]

let test_zipf_table_shared () =
  let a = Workload.Zipf.create ~n:1024 ~theta:1.1 in
  check_bool "equal (n, theta) share one table" true
    (a == Workload.Zipf.create ~n:1024 ~theta:1.1);
  let b = Workload.Zipf.create ~n:1024 ~theta:1.2 in
  check_bool "another theta builds its own" true (a != b);
  Alcotest.(check (float 0.)) "with its own theta" 1.2 (Workload.Zipf.theta b);
  check_bool "another n builds its own" true
    (a != Workload.Zipf.create ~n:512 ~theta:1.1)

(* {1 Local and cross-shard transactions} *)

let test_local_txns () =
  let st = make () in
  (match Store.exec st ~writes:[ (0, 11); (2, 13) ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  (match Store.exec st ~writes:[ (1, 17) ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  check "key 0" 11 (read st 0);
  check "key 2" 13 (read st 2);
  check "key 1" 17 (read st 1);
  check "untouched key" 0 (read st 3)

let test_cross_txn () =
  let st = make () in
  (* Keys 4 and 7 live on different shards: a two-phase commit. *)
  check "distinct shards" 1
    (abs (Store.shard_of_key st 4 - Store.shard_of_key st 7));
  (match Store.exec st ~writes:[ (4, 44); (7, 77) ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  check "shard-a key" 44 (read st 4);
  check "shard-b key" 77 (read st 7)

let test_empty_and_invalid () =
  let st = make () in
  check_bool "empty writes ok" true (Store.exec st ~writes:[] = Ok ());
  (match Store.exec st ~writes:[ (99, 1) ] with
  | Error (Lvm.Lvm_error.Invalid_key { key }) -> check "bad key reported" 99 key
  | _ -> Alcotest.fail "expected Invalid_key");
  let too_many = List.init 40 (fun i -> (i mod 8, i)) in
  (match Store.exec st ~writes:too_many with
  | Error (Lvm.Lvm_error.Txn_too_large { writes; limit }) ->
    check "size reported" 40 writes;
    check "limit reported" 32 limit
  | _ -> Alcotest.fail "expected Txn_too_large");
  check "failed txns left no trace" 0 (read st 3)

(* {1 Crash recovery} *)

(* An in-doubt cross-shard transaction: capture the detached phase-2
   commit instead of running it, so the decision is durable but one
   participant never applied — then crash. Recovery must roll the whole
   transaction forward from the coordinator intent. *)
let test_in_doubt_roll_forward () =
  let st = make () in
  let captured = ref [] in
  (match
     Store.exec st
       ~detach:(fun ~shard:_ f -> captured := f :: !captured)
       ~writes:[ (4, 91); (7, 92) ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  check "one phase-2 branch captured" 1 (List.length !captured);
  (* Crash: volatile state is lost, the captured commit never runs. *)
  let report = Store.recover st in
  (match report.Store.redone with
  | [ (_, n) ] -> check "redone writes" 2 n
  | _ -> Alcotest.fail "expected an in-doubt transaction to roll forward");
  check "home slice" 91 (read st 4);
  check "in-doubt slice" 92 (read st 7);
  (* Idempotence: a second recovery finds nothing to redo. *)
  let report2 = Store.recover st in
  check_bool "second recovery redoes nothing" true (report2.Store.redone = []);
  check "home slice stable" 91 (read st 4);
  check "in-doubt slice stable" 92 (read st 7)

(* Two cross-shard transactions on disjoint shard sets, both in their
   decide->retire window at the crash (each one's detached phase-2
   captured, never run). The coordinator must keep both intents live —
   per-gid slots, neither decide overwriting the other, neither retire
   zeroing the other — and recovery must roll BOTH forward. *)
let test_two_in_doubt_roll_forward () =
  let st = make ~shards:4 () in
  let captured = ref [] in
  let detach ~shard:_ f = captured := f :: !captured in
  (* Keys 0,1 -> shards 0,1; keys 2,3 -> shards 2,3. *)
  (match Store.exec st ~detach ~writes:[ (0, 10); (1, 11) ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  (match Store.exec st ~detach ~writes:[ (2, 20); (3, 21) ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  check "two phase-2 branches captured" 2 (List.length !captured);
  let report = Store.recover st in
  check "both in-doubt transactions rolled forward" 2
    (List.length report.Store.redone);
  check "txn A home slice" 10 (read st 0);
  check "txn A in-doubt slice" 11 (read st 1);
  check "txn B home slice" 20 (read st 2);
  check "txn B in-doubt slice" 21 (read st 3);
  let report2 = Store.recover st in
  check "second recovery redoes nothing" 0 (List.length report2.Store.redone)

let test_recover_clean () =
  let st = make () in
  (match Store.exec st ~writes:[ (0, 5); (1, 6) ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  let report = Store.recover st in
  check_bool "nothing in doubt" true (report.Store.redone = []);
  check "shard 0 durable" 5 (read st 0);
  check "shard 1 durable" 6 (read st 1)

(* {1 Backpressure} *)

(* Force the log-exhaustion path with a fault plan: the next log-segment
   page crossing behaves as if no pages were left, so the transaction's
   redo records are absorbed and commit must refuse — surfaced as a
   typed [Overloaded], never an exception, and aborted cleanly. The
   transaction is big enough (hundreds of logged stores) to actually
   cross a log page. *)
let test_overloaded () =
  let st =
    Store.create
      { Store.Config.default with
        shards = 2; keys = 1024; max_txn_writes = 300; compute = 40 }
  in
  let m = Lvm_vm.Kernel.machine (Store.kernel st) in
  let plan =
    Lvm_fault.Plan.create
      [ { Lvm_fault.Plan.site = Lvm_fault.Fault.Log_segment;
          trigger = Lvm_fault.Plan.Every 1;
          fault = Lvm_fault.Fault.Log_exhaust } ]
  in
  Lvm_machine.Machine.set_fault_plan m (Some plan);
  (* 280 writes, all on shard 0. *)
  let big = List.init 280 (fun i -> (2 * i, i + 1)) in
  (match Store.exec st ~writes:big with
  | Error (Lvm.Lvm_error.Overloaded { shard }) -> check "overloaded shard" 0 shard
  | Ok () -> Alcotest.fail "expected Overloaded, got Ok"
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  check "aborted txn left no trace" 0 (read st 0);
  Lvm_machine.Machine.set_fault_plan m None;
  (match Store.exec st ~writes:[ (0, 123) ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  check "store recovered after backpressure" 123 (read st 0)

(* {1 Workload driver} *)

let run_spec ~shards ~txns () =
  let st =
    Store.create { Store.Config.default with shards; keys = 1024 }
  in
  Workload.run st { Workload.default with txns }

let test_workload_basic () =
  let r = run_spec ~shards:4 ~txns:60 () in
  check "all txns executed" 60 (r.Workload.executed + r.Workload.shed);
  check_bool "cross-shard txns ran" true (r.Workload.cross > 0);
  check "nothing shed at this load" 0 r.Workload.shed;
  let homes =
    Array.fold_left (fun acc (s : Workload.shard_stat) -> acc + s.txns) 0
      r.Workload.per_shard
  in
  check "per-shard counts sum to executed" r.Workload.executed homes

let test_workload_deterministic () =
  let r1 = run_spec ~shards:4 ~txns:40 () in
  let r2 = run_spec ~shards:4 ~txns:40 () in
  check "wall cycles reproduce" r1.Workload.wall_cycles
    r2.Workload.wall_cycles;
  check "executed reproduces" r1.Workload.executed r2.Workload.executed;
  check "cross reproduces" r1.Workload.cross r2.Workload.cross

(* The tentpole figure: four shards must buy at least twice the
   single-shard transaction throughput on the same mix (the committed
   BENCH_5.json point uses 200 transactions; this is the same check at
   test-sized load). *)
let test_workload_scaling () =
  let r1 = run_spec ~shards:1 ~txns:200 () in
  let r4 = run_spec ~shards:4 ~txns:200 () in
  check_bool
    (Printf.sprintf "4-shard %.0f vs 1-shard %.0f cycles/txn: >= 2x"
       r4.Workload.cycles_per_txn r1.Workload.cycles_per_txn)
    true
    (r4.Workload.cycles_per_txn *. 2.0 <= r1.Workload.cycles_per_txn)

(* {1 Crash sweep over the sharded store} *)

let test_store_sweep () =
  let o =
    Lvm_tpc.Crash_sweep.run ~seed:5 ~txns:6 ~points:40 ~torn_points:8
      ~shards:2 ()
  in
  Alcotest.(check (list string)) "no atomicity violations" [] o.failures;
  check_bool "every point ran" true (o.points >= 48)

(* {1 Hot-shard survival: moves, admission, skew} *)

(* The move lifecycle stepwise, with writes landing in every window:
   during the copy (dirty-tracked, old owner), during the drain (typed
   [Moved] refusal), and after the cutover (new owner). The moved key's
   latest committed value must win. *)
let test_move_lifecycle () =
  let st = make ~shards:2 ~keys:16 () in
  for key = 0 to 15 do
    match Store.exec st ~writes:[ (key, 100 + key) ] with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e)
  done;
  (* key 0 lives in bucket 0, owned by shard 0 *)
  check "key 0 starts on shard 0" 0 (Store.shard_of_key st 0);
  Store.move_begin st ~from_:0 ~to_:1 [ 0; 2 ];
  check "two keys to copy" 2 (Store.move_remaining st);
  let remaining = Store.move_copy_step st ~batch:1 in
  check "one key copied" 1 remaining;
  (* a write during the copy keeps landing on the old owner, dirty *)
  (match Store.exec st ~writes:[ (0, 777) ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  check "copy-phase write visible" 777 (read st 0);
  check_bool "write dirtied the moved key" true
    (Store.move_dirty_count st >= 1);
  Store.move_enter_drain st;
  check_bool "draining" true (Store.move_draining st);
  (* the handoff window: a moved-key write is refused, typed *)
  (match Store.exec st ~writes:[ (0, 888) ] with
  | Error (Lvm.Lvm_error.Moved { key; shard }) ->
    check "moved key reported" 0 key;
    check "new owner reported" 1 shard
  | Ok () -> Alcotest.fail "draining move accepted a moved-key write"
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  (match Store.blocked_by_move st [ (0, 1) ] with
  | Some (key, shard) ->
    check "blocked key" 0 key;
    check "blocked target" 1 shard
  | None -> Alcotest.fail "blocked_by_move missed the handoff window");
  check_bool "unmoved keys unaffected" true
    (Store.blocked_by_move st [ (1, 1) ] = None);
  Store.move_drain st;
  check "drain copied everything" 0 (Store.move_remaining st);
  check "drain flushed the dirty set" 0 (Store.move_dirty_count st);
  Store.move_cutover st;
  Store.move_retire st;
  check_bool "move over" true (Store.active_move st = None);
  check "key 0 rerouted" 1 (Store.shard_of_key st 0);
  check "dirty value survived the handoff" 777 (read st 0);
  check "companion key moved too" 102 (read st 2);
  (* post-move writes land on the new owner *)
  (match Store.exec st ~writes:[ (0, 999) ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  check "post-move write" 999 (read st 0)

(* An aborted move changes nothing: ownership, values, and a later
   successful move still works. *)
let test_move_abort () =
  let st = make ~shards:2 ~keys:16 () in
  (match Store.exec st ~writes:[ (0, 5) ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  Store.move_begin st ~from_:0 ~to_:1 [ 0 ];
  ignore (Store.move_copy_step st ~batch:8);
  Store.move_abort st;
  check "abort kept ownership" 0 (Store.shard_of_key st 0);
  check "abort kept the value" 5 (read st 0);
  Store.move st ~from_:0 ~to_:1 [ 0 ];
  check "retry after abort moves" 1 (Store.shard_of_key st 0);
  check "value follows" 5 (read st 0)

(* The token-bucket gate: burst admits, the next immediate transaction
   sheds with the typed [Shed] — no log room or intent slot consumed —
   and tokens refill with CPU time. *)
let test_admission_shed () =
  let st =
    Store.create
      { Store.Config.default with
        shards = 2; keys = 16; compute = 40;
        admission_rate = 0.01; admission_burst = 1 }
  in
  (match Store.exec st ~writes:[ (0, 1) ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  (match Store.exec st ~writes:[ (0, 2) ] with
  | Error (Lvm.Lvm_error.Shed { shard }) -> check "shedding shard" 0 shard
  | Ok () -> Alcotest.fail "expected the token bucket to shed"
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  check "shed txn left no trace" 1 (read st 0);
  (* backing off (shard-CPU time passing) refills the bucket *)
  let k = Store.kernel st in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "the gate never refilled"
    else
      match Store.exec st ~writes:[ (0, 3) ] with
      | Ok () -> ()
      | Error (Lvm.Lvm_error.Shed _) ->
        Lvm_vm.Kernel.set_cpu k 0;
        Lvm_vm.Kernel.compute k 10_000;
        wait (tries - 1)
      | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e)
  in
  wait 100;
  check "refilled and admitted" 3 (read st 0)

(* Workload-level shed accounting: a tight admission rate sheds some of
   a closed-loop run, every transaction accounted exactly once. *)
let test_workload_shed_accounting () =
  let st =
    Store.create
      { Store.Config.default with
        shards = 2; keys = 64; compute = 40;
        admission_rate = 0.01; admission_burst = 2 }
  in
  let r =
    Workload.run st
      { Workload.default with txns = 60; cross_pct = 0; retries = 1 }
  in
  check_bool "the gate shed something" true (r.Workload.shed > 0);
  check "every txn accounted once" 60
    (r.Workload.executed + r.Workload.shed + r.Workload.failed
   + r.Workload.dropped)

(* Retry-budget exhaustion surfaces in [failed] — never silently, never
   as success, never as shed. A fault plan exhausts the log on every
   page crossing; transactions bigger than a log page cross on every
   attempt, so each one hits [Overloaded] until its budget runs out. *)
let test_failed_counter () =
  let st =
    Store.create
      { Store.Config.default with
        shards = 2; keys = 1024; compute = 40; max_txn_writes = 300 }
  in
  let m = Lvm_vm.Kernel.machine (Store.kernel st) in
  let plan =
    Lvm_fault.Plan.create
      [ { Lvm_fault.Plan.site = Lvm_fault.Fault.Log_segment;
          trigger = Lvm_fault.Plan.Every 1;
          fault = Lvm_fault.Fault.Log_exhaust } ]
  in
  Lvm_machine.Machine.set_fault_plan m (Some plan);
  let r =
    Workload.run st
      { Workload.default with
        txns = 6; cross_pct = 0; writes_per_txn = 280; retries = 2 }
  in
  Lvm_machine.Machine.set_fault_plan m None;
  check "every txn exhausted its retry budget" 6 r.Workload.failed;
  check "failed never counted as shed" 0 r.Workload.shed;
  check "failed never counted as executed" 0 r.Workload.executed;
  check "each failure burned its whole retry budget" 12 r.Workload.requeued

(* Zipfian closed-loop run with dynamic splitting: the skew piles onto
   shard 0, the splitter fires, the driver completes the move mid-run,
   and every transaction is still accounted exactly once. *)
let test_zipf_split_workload () =
  let st =
    Store.create { Store.Config.default with shards = 4; keys = 1024 }
  in
  let r =
    Workload.run st
      { Workload.default with
        txns = 300;
        dist = Workload.Zipfian { theta = 1.2 };
        split =
          Some
            { Workload.default_split with
              check_every = 24; batch = 16; max_moves = 4 }
      }
  in
  check_bool "at least one split completed" true (r.Workload.splits >= 1);
  check "every txn accounted once" 300
    (r.Workload.executed + r.Workload.shed + r.Workload.failed
   + r.Workload.dropped);
  (* the route actually changed: some bucket left its default owner,
     or a later merge sent it home again — either way moves happened *)
  check_bool "split moved buckets off the hot shard" true
    (r.Workload.splits + r.Workload.merges >= 1)

(* The same skewed run must reproduce byte-for-byte: splits, moved-key
   requeues and all. *)
let test_zipf_split_deterministic () =
  let go () =
    let st =
      Store.create { Store.Config.default with shards = 4; keys = 1024 }
    in
    Workload.run st
      { Workload.default with
        txns = 200;
        dist = Workload.Zipfian { theta = 1.2 };
        split =
          Some
            { Workload.default_split with
              check_every = 24; batch = 16; max_moves = 4 }
      }
  in
  let r1 = go () and r2 = go () in
  check "wall cycles reproduce" r1.Workload.wall_cycles r2.Workload.wall_cycles;
  check "executed reproduces" r1.Workload.executed r2.Workload.executed;
  check "splits reproduce" r1.Workload.splits r2.Workload.splits;
  check "merges reproduce" r1.Workload.merges r2.Workload.merges;
  check "moved requeues reproduce" r1.Workload.moved r2.Workload.moved

(* Open-loop bursty arrivals with a bounded front door: drops are
   counted, accounting still exact. *)
let test_open_loop_bursty () =
  let st =
    Store.create { Store.Config.default with shards = 2; keys = 64 }
  in
  let r =
    Workload.run st
      { Workload.default with
        txns = 120; cross_pct = 0;
        arrival =
          Workload.Open
            { mean_gap = 20000; burst_every = 16; burst_len = 8;
              burst_gap = 1000 };
        queue_cap = Some 4 }
  in
  check "every arrival accounted once" 120
    (r.Workload.executed + r.Workload.shed + r.Workload.failed
   + r.Workload.dropped);
  check_bool "bursts overflowed the front door" true
    (r.Workload.dropped > 0);
  check_bool "most of the load still executed" true
    (r.Workload.executed > 60)

(* {1 Split-cutover crash sweep} *)

let test_split_sweep () =
  let o =
    Lvm_tpc.Crash_sweep.run_split ~seed:5 ~points:24 ~torn_points:4
      ~cutover_points:2 ~shards:2 ()
  in
  Alcotest.(check (list string)) "no split-protocol violations" [] o.failures;
  check "every point ran" 30 o.points

let suites =
  [ ( "store",
      [ Alcotest.test_case "local transactions" `Quick test_local_txns;
        Alcotest.test_case "cross-shard 2pc" `Quick test_cross_txn;
        Alcotest.test_case "validation" `Quick test_empty_and_invalid;
        Alcotest.test_case "clean recovery" `Quick test_recover_clean;
        Alcotest.test_case "in-doubt roll-forward" `Quick
          test_in_doubt_roll_forward;
        Alcotest.test_case "two concurrent in-doubt roll-forward" `Quick
          test_two_in_doubt_roll_forward;
        Alcotest.test_case "backpressure overloaded" `Quick test_overloaded;
        Alcotest.test_case "create allocates under 512 KiB" `Quick
          test_create_allocation ] );
    ( "store.workload",
      [ Alcotest.test_case "closed loop" `Quick test_workload_basic;
        Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
        Alcotest.test_case "4-shard >= 2x scaling" `Slow test_workload_scaling ]
    );
    ( "store.crash",
      [ Alcotest.test_case "sharded sweep" `Slow test_store_sweep ] );
    ( "hotshard",
      [ Alcotest.test_case "zipf pinned ranks" `Quick test_zipf_pinned_ranks;
        Alcotest.test_case "zipf table shared" `Quick test_zipf_table_shared;
        Alcotest.test_case "move lifecycle windows" `Quick test_move_lifecycle;
        Alcotest.test_case "move abort" `Quick test_move_abort;
        Alcotest.test_case "token-bucket shed" `Quick test_admission_shed;
        Alcotest.test_case "workload shed accounting" `Quick
          test_workload_shed_accounting;
        Alcotest.test_case "retry exhaustion counts as failed" `Quick
          test_failed_counter;
        Alcotest.test_case "zipfian + dynamic split" `Slow
          test_zipf_split_workload;
        Alcotest.test_case "zipfian split deterministic" `Slow
          test_zipf_split_deterministic;
        Alcotest.test_case "open-loop bursty arrivals" `Quick
          test_open_loop_bursty ] );
    ( "hotshard.crash",
      [ Alcotest.test_case "split-cutover sweep" `Slow test_split_sweep ] ) ]
