(* Tests for recoverable memory: the RVM set_range baseline, RLVM over
   logged virtual memory, crash recovery, and the TPC-A workload. *)

open Lvm_rvm

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let boot () =
  let k = Lvm_vm.Kernel.create () in
  let sp = Lvm_vm.Kernel.create_space k in
  (k, sp)

(* {1 Ramdisk} *)

let test_ramdisk_wal_and_truncate () =
  let k, _ = boot () in
  let d = Ramdisk.create k ~size:4096 in
  let bytes v = let b = Bytes.create 4 in Bytes.set_int32_le b 0
                  (Int32.of_int v); b in
  Ramdisk.wal_append d (Ramdisk.Data { txn = 1; off = 0; bytes = bytes 7 });
  Ramdisk.wal_append d (Ramdisk.Commit { txn = 1 });
  Ramdisk.wal_append d (Ramdisk.Data { txn = 2; off = 4; bytes = bytes 9 });
  (* txn 2 never commits *)
  let img = Ramdisk.recovered_image d in
  check "committed applied" 7 (Int32.to_int (Bytes.get_int32_le img 0));
  check "uncommitted ignored" 0 (Int32.to_int (Bytes.get_int32_le img 4));
  Ramdisk.truncate d;
  check "uncommitted survives truncation" 1 (Ramdisk.entry_count d);
  check "image updated" 7
    (Int32.to_int (Bytes.get_int32_le (Ramdisk.image_read d ~off:0 ~len:4) 0))

let test_ramdisk_bounds () =
  let k, _ = boot () in
  let d = Ramdisk.create k ~size:4096 in
  Alcotest.check_raises "entry outside image"
    (Lvm_vm.Error.Lvm_error
       (Lvm_vm.Error.Out_of_range
          { op = "Ramdisk.wal_append"; what = "offset"; value = 4094 }))
    (fun () ->
      Ramdisk.wal_append d
        (Ramdisk.Data { txn = 1; off = 4094; bytes = Bytes.create 4 }))

(* {1 RVM} *)

let test_rvm_commit_persists () =
  let k, sp = boot () in
  let r = Rvm.make Rvm.Config.default k sp ~size:8192 in
  Rvm.begin_txn r;
  Rvm.set_range r ~off:0 ~len:8;
  Rvm.write_word r ~off:0 11;
  Rvm.write_word r ~off:4 22;
  Rvm.commit r;
  Rvm.crash_and_recover r;
  check "word0 recovered" 11 (Rvm.read_word r ~off:0);
  check "word1 recovered" 22 (Rvm.read_word r ~off:4)

let test_rvm_abort_restores () =
  let k, sp = boot () in
  let r = Rvm.make Rvm.Config.default k sp ~size:4096 in
  Rvm.begin_txn r;
  Rvm.set_range r ~off:0 ~len:4;
  Rvm.write_word r ~off:0 5;
  Rvm.commit r;
  Rvm.begin_txn r;
  Rvm.set_range r ~off:0 ~len:4;
  Rvm.write_word r ~off:0 99;
  check "sees uncommitted" 99 (Rvm.read_word r ~off:0);
  Rvm.abort r;
  check "old value restored" 5 (Rvm.read_word r ~off:0)

let test_rvm_crash_discards_uncommitted () =
  let k, sp = boot () in
  let r = Rvm.make Rvm.Config.default k sp ~size:4096 in
  Rvm.begin_txn r;
  Rvm.set_range r ~off:0 ~len:4;
  Rvm.write_word r ~off:0 41;
  Rvm.commit r;
  Rvm.begin_txn r;
  Rvm.set_range r ~off:0 ~len:4;
  Rvm.write_word r ~off:0 999;
  Rvm.crash_and_recover r;
  check "uncommitted lost" 41 (Rvm.read_word r ~off:0);
  check_bool "no open transaction" false (Rvm.in_txn r)

let test_rvm_unannotated_write_rejected () =
  let k, sp = boot () in
  let r = Rvm.make Rvm.Config.default k sp ~size:4096 in
  Rvm.begin_txn r;
  check_bool "unannotated write raises" true
    (try
       Rvm.write_word r ~off:16 1;
       false
     with Rvm.Unannotated_write { off } -> off = 16)

let test_rvm_missed_annotation_corrupts () =
  (* The classic Coda RVM bug (Section 2.5): in non-strict mode a missed
     set_range "commits" but the write is not recovered after a crash. *)
  let k, sp = boot () in
  let r = Rvm.make { Rvm.Config.strict = false } k sp ~size:4096 in
  Rvm.begin_txn r;
  Rvm.set_range r ~off:0 ~len:4;
  Rvm.write_word r ~off:0 1;
  Rvm.write_word r ~off:4 2 (* annotation forgotten *);
  Rvm.commit r;
  check "both visible in memory" 2 (Rvm.read_word r ~off:4);
  Rvm.crash_and_recover r;
  check "annotated write survives" 1 (Rvm.read_word r ~off:0);
  check "missed annotation silently lost" 0 (Rvm.read_word r ~off:4)

let test_rvm_txn_discipline () =
  let k, sp = boot () in
  let r = Rvm.make Rvm.Config.default k sp ~size:4096 in
  Alcotest.check_raises "set_range outside txn"
    (Lvm_vm.Error.Lvm_error
       (Lvm_vm.Error.Invalid
          { op = "Rvm.set_range"; reason = "no open transaction" }))
    (fun () -> Rvm.set_range r ~off:0 ~len:4);
  Rvm.begin_txn r;
  Alcotest.check_raises "nested txn"
    (Lvm_vm.Error.Lvm_error
       (Lvm_vm.Error.Invalid
          { op = "Rvm.begin_txn"; reason = "a transaction is already open" }))
    (fun () -> Rvm.begin_txn r)

let test_rvm_wal_truncation_under_load () =
  let k, sp = boot () in
  let r = Rvm.make Rvm.Config.default k sp ~size:8192 in
  for i = 0 to 199 do
    Rvm.begin_txn r;
    Rvm.set_range r ~off:(i * 8 mod 4096) ~len:8;
    Rvm.write_word r ~off:(i * 8 mod 4096) i;
    Rvm.commit r
  done;
  check_bool "wal stays bounded" true
    (Ramdisk.wal_bytes (Rvm.disk r) <= Rvm_costs.truncate_threshold_bytes);
  Rvm.crash_and_recover r;
  check "latest committed state" 199 (Rvm.read_word r ~off:(199 * 8 mod 4096))

(* {1 RLVM} *)

let test_rlvm_commit_persists () =
  let k, sp = boot () in
  let r = Rlvm.make Rlvm.Config.default k sp ~size:8192 in
  Rlvm.begin_txn r;
  Rlvm.write_word r ~off:0 11;
  Rlvm.write_word r ~off:4 22;
  Rlvm.commit r;
  Rlvm.crash_and_recover r;
  check "word0 recovered" 11 (Rlvm.read_word r ~off:0);
  check "word1 recovered" 22 (Rlvm.read_word r ~off:4)

let test_rlvm_abort_restores () =
  let k, sp = boot () in
  let r = Rlvm.make Rlvm.Config.default k sp ~size:4096 in
  Rlvm.begin_txn r;
  Rlvm.write_word r ~off:8 5;
  Rlvm.commit r;
  Rlvm.begin_txn r;
  Rlvm.write_word r ~off:8 99;
  Rlvm.write_word r ~off:12 100;
  check "sees uncommitted" 99 (Rlvm.read_word r ~off:8);
  Rlvm.abort r;
  check "committed value restored" 5 (Rlvm.read_word r ~off:8);
  check "other write undone" 0 (Rlvm.read_word r ~off:12)

let test_rlvm_crash_discards_uncommitted () =
  let k, sp = boot () in
  let r = Rlvm.make Rlvm.Config.default k sp ~size:4096 in
  Rlvm.begin_txn r;
  Rlvm.write_word r ~off:0 41;
  Rlvm.commit r;
  Rlvm.begin_txn r;
  Rlvm.write_word r ~off:0 999;
  Rlvm.crash_and_recover r;
  check "uncommitted lost" 41 (Rlvm.read_word r ~off:0)

let test_rlvm_no_annotations_needed () =
  (* every write inside a transaction is recovered — no set_range *)
  let k, sp = boot () in
  let r = Rlvm.make Rlvm.Config.default k sp ~size:4096 in
  Rlvm.begin_txn r;
  for i = 0 to 63 do
    Rlvm.write_word r ~off:(i * 4) (i * i)
  done;
  Rlvm.commit r;
  Rlvm.crash_and_recover r;
  let ok = ref true in
  for i = 0 to 63 do
    if Rlvm.read_word r ~off:(i * 4) <> i * i then ok := false
  done;
  check_bool "all 64 unannotated writes recovered" true !ok

let test_rlvm_write_outside_txn_rejected () =
  let k, sp = boot () in
  let r = Rlvm.make Rlvm.Config.default k sp ~size:4096 in
  Alcotest.check_raises "write outside txn"
    (Lvm_vm.Error.Lvm_error
       (Lvm_vm.Error.Invalid
          { op = "Rlvm.write_word"; reason = "no open transaction" }))
    (fun () -> Rlvm.write_word r ~off:0 1)

(* Commit builds nothing per write: the redo goes from the LVM log
   straight into the WAL buffer and the CULT replays it in place, so a
   commit of 64 writes allocates no more than one of 4 writes, up to a
   small slack. The first commit touches every page and table. *)
let test_rlvm_commit_words_flat () =
  let k, sp = boot () in
  let r = Rlvm.make Rlvm.Config.default k sp ~size:4096 in
  let commit_words writes =
    Rlvm.begin_txn r;
    for i = 0 to writes - 1 do
      Rlvm.write_word r ~off:(i * 4) (i + writes)
    done;
    let before = Gc.minor_words () in
    Rlvm.commit r;
    Gc.minor_words () -. before
  in
  ignore (commit_words 64);
  let w4 = commit_words 4 in
  let w64 = commit_words 64 in
  check_bool
    (Printf.sprintf "commit of 64 writes %.0f words, of 4 writes %.0f" w64 w4)
    true
    (w64 -. w4 <= 16.);
  check "last commit visible" (63 + 64) (Rlvm.read_word r ~off:(63 * 4))

let test_rlvm_repeated_writes_ordered () =
  (* multiple writes to one location: the last committed value wins after
     recovery (records replay in order) *)
  let k, sp = boot () in
  let r = Rlvm.make Rlvm.Config.default k sp ~size:4096 in
  Rlvm.begin_txn r;
  Rlvm.write_word r ~off:0 1;
  Rlvm.write_word r ~off:0 2;
  Rlvm.write_word r ~off:0 3;
  Rlvm.commit r;
  Rlvm.crash_and_recover r;
  check "last write wins" 3 (Rlvm.read_word r ~off:0)

let prop_rvm_rlvm_equivalent =
  (* Both implementations expose the same transactional semantics: after
     a random interleaving of committed/aborted transactions and a crash,
     they agree word for word. *)
  let words = 32 in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 12)
        (pair (list_size (int_range 0 6)
                 (pair (int_bound (words - 1)) (int_bound 999)))
           bool))
  in
  let print txns =
    String.concat " | "
      (List.map
         (fun (ws, commit) ->
           Printf.sprintf "%s:%b"
             (String.concat ","
                (List.map (fun (w, v) -> Printf.sprintf "%d=%d" w v) ws))
             commit)
         txns)
  in
  QCheck.Test.make ~name:"rvm and rlvm agree after crash" ~count:40
    (QCheck.make ~print gen) (fun txns ->
      let k, sp = boot () in
      let rvm = Rvm.make Rvm.Config.default k sp ~size:(words * 4) in
      let rlvm = Rlvm.make Rlvm.Config.default k sp ~size:(words * 4) in
      List.iter
        (fun (ws, commit) ->
          Rvm.begin_txn rvm;
          Rlvm.begin_txn rlvm;
          List.iter
            (fun (w, v) ->
              Rvm.set_range rvm ~off:(w * 4) ~len:4;
              Rvm.write_word rvm ~off:(w * 4) v;
              Rlvm.write_word rlvm ~off:(w * 4) v)
            ws;
          if commit then begin
            Rvm.commit rvm;
            Rlvm.commit rlvm
          end
          else begin
            Rvm.abort rvm;
            Rlvm.abort rlvm
          end)
        txns;
      Rvm.crash_and_recover rvm;
      Rlvm.crash_and_recover rlvm;
      let ok = ref true in
      for w = 0 to words - 1 do
        if Rvm.read_word rvm ~off:(w * 4) <> Rlvm.read_word rlvm ~off:(w * 4)
        then ok := false
      done;
      !ok)

(* {1 Performance shape (Table 3)} *)

let test_single_write_costs () =
  let k, sp = boot () in
  let rvm = Rvm.make Rvm.Config.default k sp ~size:8192 in
  Rvm.begin_txn rvm;
  Rvm.set_range rvm ~off:0 ~len:4;
  Rvm.write_word rvm ~off:0 1;
  let t0 = Lvm_vm.Kernel.time k in
  Rvm.set_range rvm ~off:4 ~len:4;
  Rvm.write_word rvm ~off:4 2;
  let rvm_cost = Lvm_vm.Kernel.time k - t0 in
  Rvm.commit rvm;
  let rlvm = Rlvm.make Rlvm.Config.default k sp ~size:8192 in
  Rlvm.begin_txn rlvm;
  Rlvm.write_word rlvm ~off:0 1;
  Lvm_vm.Kernel.compute k 200;
  let t1 = Lvm_vm.Kernel.time k in
  Rlvm.write_word rlvm ~off:4 2;
  let rlvm_cost = Lvm_vm.Kernel.time k - t1 in
  Rlvm.commit rlvm;
  check "rvm single write = 3515 cycles" 3515 rvm_cost;
  check "rlvm single write = 16 cycles" 16 rlvm_cost

(* {1 TPC-A} *)

let tpc_fixture () =
  let k, sp = boot () in
  let bank =
    Lvm_tpc.Bank.layout ~branches:2 ~tellers:20 ~accounts:100 ~history:128
  in
  (k, sp, bank, Lvm_tpc.Bank.segment_bytes bank)

let test_tpca_invariants_rvm () =
  let k, sp, bank, size = tpc_fixture () in
  let store = Lvm_tpc.Tpca.rvm_store (Rvm.make Rvm.Config.default k sp ~size) in
  Lvm_tpc.Tpca.setup store bank;
  let r = Lvm_tpc.Tpca.run store bank ~txns:100 in
  check "txns" 100 r.Lvm_tpc.Tpca.txns;
  check_bool "balances consistent" true
    (Lvm_tpc.Tpca.balance_invariant store bank)

let test_tpca_invariants_rlvm () =
  let k, sp, bank, size = tpc_fixture () in
  let store = Lvm_tpc.Tpca.rlvm_store (Rlvm.make Rlvm.Config.default k sp ~size) in
  Lvm_tpc.Tpca.setup store bank;
  ignore (Lvm_tpc.Tpca.run store bank ~txns:100);
  check_bool "balances consistent" true
    (Lvm_tpc.Tpca.balance_invariant store bank)

let test_tpca_same_results_both_stores () =
  let k, sp, bank, size = tpc_fixture () in
  let s_rvm = Lvm_tpc.Tpca.rvm_store (Rvm.make Rvm.Config.default k sp ~size) in
  let s_rlvm = Lvm_tpc.Tpca.rlvm_store (Rlvm.make Rlvm.Config.default k sp ~size) in
  Lvm_tpc.Tpca.setup s_rvm bank;
  Lvm_tpc.Tpca.setup s_rlvm bank;
  ignore (Lvm_tpc.Tpca.run ~seed:3 s_rvm bank ~txns:80);
  ignore (Lvm_tpc.Tpca.run ~seed:3 s_rlvm bank ~txns:80);
  check "identical final balance" (Lvm_tpc.Tpca.total_balance s_rvm bank)
    (Lvm_tpc.Tpca.total_balance s_rlvm bank)

let test_tpca_rlvm_faster () =
  let k, sp, bank, size = tpc_fixture () in
  let s_rvm = Lvm_tpc.Tpca.rvm_store (Rvm.make Rvm.Config.default k sp ~size) in
  let s_rlvm = Lvm_tpc.Tpca.rlvm_store (Rlvm.make Rlvm.Config.default k sp ~size) in
  Lvm_tpc.Tpca.setup s_rvm bank;
  Lvm_tpc.Tpca.setup s_rlvm bank;
  let r_rvm = Lvm_tpc.Tpca.run s_rvm bank ~txns:150 in
  let r_rlvm = Lvm_tpc.Tpca.run s_rlvm bank ~txns:150 in
  let ratio = r_rlvm.Lvm_tpc.Tpca.tps /. r_rvm.Lvm_tpc.Tpca.tps in
  check_bool
    (Printf.sprintf "RLVM/RVM tps ratio %.2f in paper band [1.15,1.55]" ratio)
    true
    (ratio > 1.15 && ratio < 1.55)

let test_tpca_survives_crash () =
  let k, sp, bank, size = tpc_fixture () in
  let rlvm = Rlvm.make Rlvm.Config.default k sp ~size in
  let store = Lvm_tpc.Tpca.rlvm_store rlvm in
  Lvm_tpc.Tpca.setup store bank;
  ignore (Lvm_tpc.Tpca.run store bank ~txns:60);
  let before = Lvm_tpc.Tpca.total_balance store bank in
  Rlvm.crash_and_recover rlvm;
  check "balances durable across crash" before
    (Lvm_tpc.Tpca.total_balance store bank);
  check_bool "invariant holds after recovery" true
    (Lvm_tpc.Tpca.balance_invariant store bank)

let suites =
  [
    ( "rvm.ramdisk",
      [
        Alcotest.test_case "wal and truncate" `Quick
          test_ramdisk_wal_and_truncate;
        Alcotest.test_case "bounds" `Quick test_ramdisk_bounds;
      ] );
    ( "rvm.rvm",
      [
        Alcotest.test_case "commit persists" `Quick test_rvm_commit_persists;
        Alcotest.test_case "abort restores" `Quick test_rvm_abort_restores;
        Alcotest.test_case "crash discards uncommitted" `Quick
          test_rvm_crash_discards_uncommitted;
        Alcotest.test_case "unannotated write rejected" `Quick
          test_rvm_unannotated_write_rejected;
        Alcotest.test_case "missed annotation corrupts" `Quick
          test_rvm_missed_annotation_corrupts;
        Alcotest.test_case "transaction discipline" `Quick
          test_rvm_txn_discipline;
        Alcotest.test_case "wal truncation under load" `Quick
          test_rvm_wal_truncation_under_load;
      ] );
    ( "rvm.rlvm",
      [
        Alcotest.test_case "commit persists" `Quick test_rlvm_commit_persists;
        Alcotest.test_case "abort restores" `Quick test_rlvm_abort_restores;
        Alcotest.test_case "crash discards uncommitted" `Quick
          test_rlvm_crash_discards_uncommitted;
        Alcotest.test_case "no annotations needed" `Quick
          test_rlvm_no_annotations_needed;
        Alcotest.test_case "write outside txn rejected" `Quick
          test_rlvm_write_outside_txn_rejected;
        Alcotest.test_case "commit words independent of write count" `Quick
          test_rlvm_commit_words_flat;
        Alcotest.test_case "repeated writes ordered" `Quick
          test_rlvm_repeated_writes_ordered;
        QCheck_alcotest.to_alcotest prop_rvm_rlvm_equivalent;
      ] );
    ( "rvm.table3",
      [ Alcotest.test_case "single write costs" `Quick test_single_write_costs
      ] );
    ( "rvm.tpca",
      [
        Alcotest.test_case "invariants (rvm)" `Quick test_tpca_invariants_rvm;
        Alcotest.test_case "invariants (rlvm)" `Quick
          test_tpca_invariants_rlvm;
        Alcotest.test_case "same results both stores" `Quick
          test_tpca_same_results_both_stores;
        Alcotest.test_case "rlvm faster" `Quick test_tpca_rlvm_faster;
        Alcotest.test_case "survives crash" `Quick test_tpca_survives_crash;
      ] );
  ]

(* {1 Crash-point injection} *)

(* Property: crash after any prefix of committed transactions recovers
   exactly the state those transactions produced — for both stores. *)
let prop_crash_point_recovery =
  let words = 16 in
  let gen =
    QCheck.Gen.(
      let* txns =
        list_size (int_range 1 8)
          (list_size (int_range 1 4)
             (pair (int_bound (words - 1)) (int_bound 999)))
      in
      let* crash_after = int_bound (List.length txns) in
      return (txns, crash_after))
  in
  let print (txns, crash_after) =
    Printf.sprintf "crash_after=%d txns=%d" crash_after (List.length txns)
  in
  QCheck.Test.make ~name:"crash after k commits recovers k commits" ~count:30
    (QCheck.make ~print gen) (fun (txns, crash_after) ->
      let k, sp = boot () in
      let rvm = Rvm.make Rvm.Config.default k sp ~size:(words * 4) in
      let rlvm = Rlvm.make Rlvm.Config.default k sp ~size:(words * 4) in
      let expect = Array.make words 0 in
      List.iteri
        (fun i writes ->
          if i < crash_after then begin
            Rvm.begin_txn rvm;
            Rlvm.begin_txn rlvm;
            List.iter
              (fun (w, v) ->
                Rvm.set_range rvm ~off:(w * 4) ~len:4;
                Rvm.write_word rvm ~off:(w * 4) v;
                Rlvm.write_word rlvm ~off:(w * 4) v;
                expect.(w) <- v)
              writes;
            Rvm.commit rvm;
            Rlvm.commit rlvm
          end
          else if i = crash_after then begin
            (* an in-flight transaction dies with the machine *)
            Rvm.begin_txn rvm;
            Rlvm.begin_txn rlvm;
            List.iter
              (fun (w, v) ->
                Rvm.set_range rvm ~off:(w * 4) ~len:4;
                Rvm.write_word rvm ~off:(w * 4) (v + 1);
                Rlvm.write_word rlvm ~off:(w * 4) (v + 1))
              writes
          end)
        txns;
      Rvm.crash_and_recover rvm;
      Rlvm.crash_and_recover rlvm;
      let ok = ref true in
      Array.iteri
        (fun w v ->
          if Rvm.read_word rvm ~off:(w * 4) <> v then ok := false;
          if Rlvm.read_word rlvm ~off:(w * 4) <> v then ok := false)
        expect;
      !ok)

let crash_suite =
  ("rvm.crash-injection", [ QCheck_alcotest.to_alcotest prop_crash_point_recovery ])

let suites = suites @ [ crash_suite ]
