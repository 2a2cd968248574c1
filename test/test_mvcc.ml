(* Tests for log-derived MVCC snapshot reads: the store's versioned
   snapshot surface ([Store.Snapshot]), 2PC atomicity at the consistent cut,
   route pinning across concurrent shard moves, the read-heavy workload
   modes, and a splitmix-seeded prefix-consistency property over random
   interleavings of writes, 2PC transactions, moves, snapshots and
   recovery. *)

module Store = Lvm_store.Store
module Workload = Lvm_store.Workload
module Sm = Lvm_fault.Splitmix

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let no_pace ~cpu:_ = ()

let exec_ok st ?detach writes =
  match Store.exec st ?detach ~writes with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e)

let snap_read s key =
  match Store.Snapshot.read s key with
  | Ok v -> v
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e)

let acquire st =
  match Store.Snapshot.acquire st with
  | Ok s -> s
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e)

let make ?(shards = 2) ?(keys = 32) () =
  Store.create { Store.Config.default with shards; keys; compute = 40 }

(* {1 Snapshot basics} *)

let test_snapshot_basics () =
  let st = make () in
  (* before the view attaches, read takes the worker path *)
  check_bool "mvcc not attached yet" false (Store.mvcc_attached st);
  (match Store.read st 0 with
  | Ok v -> check "worker-path read" 0 v
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  exec_ok st [ (0, 11); (1, 22) ];
  let s1 = acquire st in
  check_bool "first acquire attached the view" true (Store.mvcc_attached st);
  check "snapshot sees committed key 0" 11 (snap_read s1 0);
  check "snapshot sees committed key 1" 22 (snap_read s1 1);
  check "untouched key reads the base" 0 (snap_read s1 5);
  (* later commits are invisible to the held snapshot *)
  exec_ok st [ (0, 33) ];
  check "held snapshot is immutable" 11 (snap_read s1 0);
  (match Store.read st 0 with
  | Ok v -> check "Store.read is the latest snapshot" 33 v
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  (match Store.read st 99 with
  | Error (Lvm.Lvm_error.Invalid_key { key }) -> check "typed key error" 99 key
  | _ -> Alcotest.fail "expected Invalid_key");
  (* time travel back to the first snapshot's timestamp *)
  let ts1 = Store.Snapshot.ts s1 in
  (match Store.Snapshot.as_of st ~ts:ts1 with
  | Ok s ->
    check "as-of read at the old cut" 11 (snap_read s 0);
    Store.Snapshot.release s
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  (match Store.Snapshot.as_of st ~ts:(Store.last_ts st + 5) with
  | Error (Lvm.Lvm_error.Snapshot_unavailable { ts; floor; frontier }) ->
    check "refused ts echoed" (Store.last_ts st + 5) ts;
    check_bool "readable window is sane" true (floor <= frontier)
  | _ -> Alcotest.fail "expected Snapshot_unavailable above the cut");
  Store.Snapshot.release s1;
  (match Store.Snapshot.read s1 0 with
  | Error (Lvm.Lvm_error.Snapshot_unavailable _) -> ()
  | _ -> Alcotest.fail "released snapshot must refuse reads")

(* {1 2PC atomicity at the cut} *)

(* A cross-shard transaction whose phase-2 commit is captured but not
   yet run is decided-but-in-flight: the consistent cut must exclude it
   wholly — even the home participant's already-committed slice — and
   include it wholly once the detached branch lands. *)
let test_2pc_cut_atomicity () =
  let st = make () in
  exec_ok st [ (4, 1); (7, 2) ];
  let s0 = acquire st in
  check "pre-txn key 4" 1 (snap_read s0 4);
  Store.Snapshot.release s0;
  let captured = ref [] in
  exec_ok st ~detach:(fun ~shard:_ f -> captured := f :: !captured)
    [ (4, 91); (7, 92) ];
  check "one branch captured" 1 (List.length !captured);
  let mid = acquire st in
  check "in-flight txn invisible on the home shard" 1 (snap_read mid 4);
  check "in-flight txn invisible on the participant" 2 (snap_read mid 7);
  List.iter (fun f -> f ~pace:no_pace) !captured;
  Store.flush st;
  let post = acquire st in
  check "landed txn visible on the home shard" 91 (snap_read post 4);
  check "landed txn visible on the participant" 92 (snap_read post 7);
  (* the mid-flight snapshot still excludes it: immutability *)
  check "mid snapshot still excludes the txn" 1 (snap_read mid 4);
  Store.Snapshot.release mid;
  Store.Snapshot.release post

(* {1 Route pinning across a concurrent split} *)

let test_split_concurrent_snapshot () =
  let st = make () in
  exec_ok st [ (0, 100); (2, 102); (1, 201) ];
  let before = acquire st in
  let owned = Store.shard_buckets st 0 in
  let half = (List.length owned + 1) / 2 in
  let picked = List.filteri (fun i _ -> i < half) owned in
  check_bool "key 0's bucket moves" true (List.mem 0 picked);
  Store.move st ~from_:0 ~to_:1 ~batch:2 picked;
  (* overwrite a moved key under the new routing *)
  exec_ok st [ (0, 999) ];
  let after = acquire st in
  check "pinned snapshot reads through the old route" 100
    (snap_read before 0);
  check "pinned snapshot: unmoved key" 102 (snap_read before 2);
  check "fresh snapshot reads through the new route" 999 (snap_read after 0);
  check "fresh snapshot: moved-but-unwritten key" 102 (snap_read after 2);
  (* time travel below the cutover also resolves the old owner *)
  (match Store.Snapshot.as_of st ~ts:(Store.Snapshot.ts before) with
  | Ok s ->
    check "as-of below the cutover" 100 (snap_read s 0);
    Store.Snapshot.release s
  | Error e -> Alcotest.fail (Lvm.Lvm_error.to_string e));
  Store.Snapshot.release before;
  Store.Snapshot.release after

(* {1 Read-heavy workload modes} *)

let test_workload_read_modes () =
  let run mode readers =
    let st = make ~shards:2 ~keys:64 () in
    Workload.run st
      { Workload.default with
        txns = 200; cross_pct = 0; writes_per_txn = 2;
        read_pct = 50; read_mode = mode; readers }
  in
  let w = run Workload.Worker 1 in
  check_bool "worker mode served reads" true (w.Workload.reads > 0);
  check "every op accounted once (worker)" 200
    (w.Workload.executed + w.Workload.reads + w.Workload.shed
   + w.Workload.failed + w.Workload.dropped);
  let s = run Workload.Snapshot 2 in
  check "snapshot mode serves the same reads" w.Workload.reads
    s.Workload.reads;
  check "every op accounted once (snapshot)" 200
    (s.Workload.executed + s.Workload.reads + s.Workload.shed
   + s.Workload.failed + s.Workload.dropped);
  (* same seed, same run: both modes are deterministic *)
  let s' = run Workload.Snapshot 2 in
  check "snapshot mode deterministic (wall)" s.Workload.wall_cycles
    s'.Workload.wall_cycles;
  check "snapshot mode deterministic (reads)" s.Workload.reads
    s'.Workload.reads;
  let w' = run Workload.Worker 1 in
  check "worker mode deterministic (wall)" w.Workload.wall_cycles
    w'.Workload.wall_cycles

(* {1 Prefix-consistency property}

   Random interleavings of local writes, 2PC transactions (with the
   phase-2 branch captured, a mid-flight snapshot probed, then the
   branch released), snapshot acquires, as-of time travel, and a shard
   move — every snapshot must equal the committed prefix at its
   timestamp, exactly. After the run, double recovery must invalidate
   every live snapshot and leave fresh snapshots re-derivable. *)

let expect cond fmt = Printf.ksprintf (fun s -> if not cond then failwith s) fmt

let prop_snapshot_prefix rng size =
  let shards = 2 + Sm.int rng ~bound:2 in
  let keys = shards * 8 in
  let st =
    Store.create { Store.Config.default with shards; keys; compute = 40 }
  in
  (* attach the view while quiescent *)
  Store.Snapshot.release (acquire st);
  let model = Array.make keys 0 in
  let hist = ref [ (Store.last_ts st, Array.copy model) ] in
  let live = ref [] in
  let moved = ref false in
  let check_snap label snap expected =
    Array.iteri
      (fun key want ->
        match Store.Snapshot.read snap key with
        | Ok got ->
          expect (got = want) "%s: key %d got %d want %d (ts %d)" label key
            got want (Store.Snapshot.ts snap)
        | Error e -> failwith (label ^ ": " ^ Lvm.Lvm_error.to_string e))
      expected
  in
  let commit writes =
    List.iter (fun (key, v) -> model.(key) <- v) writes;
    hist := (Store.last_ts st, Array.copy model) :: !hist
  in
  let exec writes =
    match Store.exec st ~writes with
    | Ok () -> commit writes
    | Error e -> failwith (Lvm.Lvm_error.to_string e)
  in
  let ops = 16 + min 48 size in
  for _ = 1 to ops do
    match Sm.int rng ~bound:100 with
    | r when r < 35 ->
      (* a local-ish transaction: 1-3 random keys *)
      let n = 1 + Sm.int rng ~bound:3 in
      exec
        (List.init n (fun _ ->
             (Sm.int rng ~bound:keys, 1 + Sm.int rng ~bound:0xFFFFF)))
    | r when r < 55 ->
      (* a 2PC transaction across two shards, phase 2 captured: the cut
         must exclude it until the branch lands *)
      let k1 = Sm.int rng ~bound:keys in
      let k2 =
        let rec find k =
          if Store.shard_of_key st k <> Store.shard_of_key st k1 then k
          else find ((k + 1) mod keys)
        in
        find (Sm.int rng ~bound:keys)
      in
      let writes =
        [ (k1, 1 + Sm.int rng ~bound:0xFFFFF);
          (k2, 1 + Sm.int rng ~bound:0xFFFFF) ]
      in
      let captured = ref [] in
      (match
         Store.exec st
           ~detach:(fun ~shard:_ f -> captured := f :: !captured)
           ~writes
       with
      | Ok () ->
        let mid = acquire st in
        check_snap "mid-2PC snapshot" mid model;
        Store.Snapshot.release mid;
        List.iter (fun f -> f ~pace:no_pace) !captured;
        Store.flush st;
        commit writes
      | Error e -> failwith (Lvm.Lvm_error.to_string e))
    | r when r < 70 ->
      (* acquire and hold: it pins the committed prefix as of now *)
      let snap = acquire st in
      live := (snap, Array.copy model) :: !live
    | r when r < 85 -> (
      (* as-of time travel to a random committed prefix *)
      let ts, expected =
        List.nth !hist (Sm.int rng ~bound:(List.length !hist))
      in
      match Store.Snapshot.as_of st ~ts with
      | Ok snap ->
        check_snap "as-of snapshot" snap expected;
        Store.Snapshot.release snap
      | Error e -> failwith ("as-of: " ^ Lvm.Lvm_error.to_string e))
    | r when r < 92 ->
      (* a split (or the merge sending it home), concurrent with every
         held snapshot — route pinning keeps them valid *)
      if !moved then begin
        let displaced =
          List.filter
            (fun b -> Store.owner_of_bucket st b <> Store.default_owner st b)
            (List.init (Store.buckets st) Fun.id)
        in
        List.iter
          (fun b ->
            Store.move st ~from_:(Store.owner_of_bucket st b)
              ~to_:(Store.default_owner st b) ~batch:4 [ b ])
          displaced;
        moved := false
      end
      else begin
        let owned = Store.shard_buckets st 0 in
        let half = (List.length owned + 1) / 2 in
        Store.move st ~from_:0 ~to_:1 ~batch:4
          (List.filteri (fun i _ -> i < half) owned);
        moved := true
      end;
      List.iter (fun (snap, expected) -> check_snap "post-move" snap expected)
        !live
    | _ ->
      (* validate every held snapshot against its pinned prefix *)
      List.iter
        (fun (snap, expected) -> check_snap "held snapshot" snap expected)
        !live
  done;
  List.iter (fun (snap, expected) -> check_snap "final" snap expected) !live;
  (* double recovery: old snapshots die, fresh ones re-derive *)
  ignore (Store.recover st);
  ignore (Store.recover st);
  List.iter
    (fun (snap, _) ->
      match Store.Snapshot.read snap 0 with
      | Error (Lvm.Lvm_error.Snapshot_unavailable _) -> ()
      | Ok _ | Error _ -> failwith "recovery left a stale snapshot readable")
    !live;
  let fresh = acquire st in
  check_snap "post-recovery snapshot" fresh model;
  Store.Snapshot.release fresh

(* the same splitmix-driven runner test_prop uses, inlined *)
let run_prop ?(cases = 60) ?(max_size = 64) name prop =
  let suite_seed = 0x5eed in
  for case = 0 to cases - 1 do
    let case_seed = (suite_seed * 1_000_003) + case in
    let size = 1 + Sm.int (Sm.create ~seed:case_seed) ~bound:max_size in
    match prop (Sm.create ~seed:(case_seed * 2 + 1)) size with
    | () -> ()
    | exception e ->
      Alcotest.fail
        (Printf.sprintf "%s: case %d (seed %d, size %d): %s" name case
           case_seed size (Printexc.to_string e))
  done

let test_snapshot_prefix_prop () =
  run_prop "snapshot prefix consistency" prop_snapshot_prefix

let suites =
  [ ( "mvcc",
      [ Alcotest.test_case "snapshot basics + result-typed reads" `Quick
          test_snapshot_basics;
        Alcotest.test_case "2pc atomicity at the cut" `Quick
          test_2pc_cut_atomicity;
        Alcotest.test_case "split-concurrent snapshots" `Quick
          test_split_concurrent_snapshot;
        Alcotest.test_case "workload read modes" `Quick
          test_workload_read_modes ] );
    ( "mvcc.prop",
      [ Alcotest.test_case "snapshot prefix consistency" `Slow
          test_snapshot_prefix_prop ] ) ]
