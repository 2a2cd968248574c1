open Lvm_vm
open Lvm_rvm

type results = {
  rvm_single_write : int;
  rlvm_single_write : int;
  rvm_tps : float;
  rlvm_tps : float;
  rvm_in_txn_fraction : float;
  rlvm_in_txn_fraction : float;
}

let single_writes () =
  let k = Kernel.create () in
  let sp = Kernel.create_space k in
  let rvm = Rvm.make Rvm.Config.default k sp ~size:8192 in
  Rvm.begin_txn rvm;
  Rvm.set_range rvm ~off:0 ~len:4;
  Rvm.write_word rvm ~off:0 1 (* warm the page *);
  let t0 = Kernel.time k in
  Rvm.set_range rvm ~off:4 ~len:4;
  Rvm.write_word rvm ~off:4 2;
  let rvm_cost = Kernel.time k - t0 in
  Rvm.commit rvm;
  let rlvm = Rlvm.make Rlvm.Config.default k sp ~size:8192 in
  Rlvm.begin_txn rlvm;
  Rlvm.write_word rlvm ~off:0 1;
  Kernel.compute k 200;
  let t1 = Kernel.time k in
  Rlvm.write_word rlvm ~off:4 2;
  let rlvm_cost = Kernel.time k - t1 in
  Rlvm.commit rlvm;
  (rvm_cost, rlvm_cost)

(* Instrumented TPC-A run: separate the in-transaction time from commit
   and truncation by timing each phase through a wrapped store. *)
let tpca_with_split store bank ~txns =
  let k = store.Lvm_tpc.Tpca.kernel in
  let in_txn = ref 0 in
  let begin_time = ref 0 in
  let wrapped =
    {
      store with
      Lvm_tpc.Tpca.begin_txn =
        (fun () ->
          store.Lvm_tpc.Tpca.begin_txn ();
          begin_time := Kernel.time k);
      commit =
        (fun () ->
          in_txn := !in_txn + (Kernel.time k - !begin_time);
          store.Lvm_tpc.Tpca.commit ());
    }
  in
  Lvm_tpc.Tpca.setup store bank;
  let r = Lvm_tpc.Tpca.run wrapped bank ~txns in
  (r, float_of_int !in_txn /. float_of_int r.Lvm_tpc.Tpca.cycles)

let txns = 500

let measure () =
  let rvm_single_write, rlvm_single_write = single_writes () in
  let bank =
    Lvm_tpc.Bank.layout ~branches:4 ~tellers:40 ~accounts:400 ~history:256
  in
  let size = Lvm_tpc.Bank.segment_bytes bank in
  let k = Kernel.create () in
  let sp = Kernel.create_space k in
  let r_rvm, f_rvm =
    tpca_with_split (Lvm_tpc.Tpca.rvm_store (Rvm.make Rvm.Config.default k sp ~size)) bank
      ~txns
  in
  let r_rlvm, f_rlvm =
    tpca_with_split (Lvm_tpc.Tpca.rlvm_store (Rlvm.make Rlvm.Config.default k sp ~size)) bank
      ~txns
  in
  {
    rvm_single_write;
    rlvm_single_write;
    rvm_tps = r_rvm.Lvm_tpc.Tpca.tps;
    rlvm_tps = r_rlvm.Lvm_tpc.Tpca.tps;
    rvm_in_txn_fraction = f_rvm;
    rlvm_in_txn_fraction = f_rlvm;
  }

let run ppf =
  Report.section ppf "Table 3: RVM versus RLVM";
  let r = measure () in
  Report.comparison ppf
    [
      ("Single write (RVM)", "3515 cycles",
       Report.fi r.rvm_single_write ^ " cycles");
      ("Single write (RLVM)", "16 cycles",
       Report.fi r.rlvm_single_write ^ " cycles");
      ( "RVM/RLVM write ratio", "~220x",
        Report.ff ~decimals:0
          (float_of_int r.rvm_single_write
           /. float_of_int r.rlvm_single_write)
        ^ "x" );
      ("TPC-A (RVM)", "418 trans/sec", Report.ff ~decimals:0 r.rvm_tps);
      ("TPC-A (RLVM)", "552 trans/sec", Report.ff ~decimals:0 r.rlvm_tps);
      ( "RVM in-transaction time", "~25%",
        Report.ff ~decimals:1 (100. *. r.rvm_in_txn_fraction) ^ "%" );
      ( "RLVM in-transaction time", "<1%",
        Report.ff ~decimals:1 (100. *. r.rlvm_in_txn_fraction) ^ "%" );
    ];
  Report.note ppf
    "commit and log truncation dominate both systems; LVM removes only \
     the in-transaction logging cost, as the paper reports.";
  let tps name paper measured =
    ( Report.within ~tolerance:0.10 ~paper measured,
      Printf.sprintf "%s tps within 10%% of %.0f (measured %.0f)" name paper
        measured )
  in
  Report.claims
    [
      ( r.rvm_single_write = 3515,
        Printf.sprintf "RVM single write 3515 cycles (measured %d)"
          r.rvm_single_write );
      ( r.rlvm_single_write = 16,
        Printf.sprintf "RLVM single write 16 cycles (measured %d)"
          r.rlvm_single_write );
      tps "RVM" 418. r.rvm_tps;
      tps "RLVM" 552. r.rlvm_tps;
      ( r.rvm_in_txn_fraction > 0.18 && r.rvm_in_txn_fraction < 0.32,
        Printf.sprintf "RVM in-transaction time in (0.18, 0.32) (measured %.3f)"
          r.rvm_in_txn_fraction );
      ( r.rlvm_in_txn_fraction < 0.03,
        Printf.sprintf "RLVM in-transaction time < 0.03 (measured %.3f)"
          r.rlvm_in_txn_fraction );
    ]
