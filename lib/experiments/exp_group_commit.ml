open Lvm_vm

let point ~group =
  let k = Kernel.create ~frames:256 () in
  let sp = Kernel.create_space k in
  let r =
    Lvm_rvm.Rlvm.make { Lvm_rvm.Rlvm.Config.default with group } k sp ~size:8192
  in
  let txns = 64 in
  let t0 = Kernel.time k in
  for i = 1 to txns do
    Lvm_rvm.Rlvm.begin_txn r;
    Lvm_rvm.Rlvm.write_word r ~off:(i * 8 mod 4096) i;
    Lvm_rvm.Rlvm.commit r
  done;
  Lvm_rvm.Rlvm.flush_commits r;
  let cycles = Kernel.time k - t0 in
  let forces =
    Lvm_obs.Snapshot.get
      (Lvm_machine.Machine.snapshot (Kernel.machine k))
      "rvm.wal_forces"
  in
  (cycles / txns, forces)

let run ppf =
  let c1, f1 = point ~group:1 in
  let c4, f4 = point ~group:4 in
  Format.fprintf ppf
    "group commit (64 txns): group=1 %d cycles/txn, %d WAL forces; \
     group=4 %d cycles/txn, %d WAL forces@."
    c1 f1 c4 f4;
  Report.claims []
