let txns = 200

let point ~shards =
  let st =
    Lvm_store.Store.create { Lvm_store.Store.Config.default with shards }
  in
  Lvm_store.Workload.run st { Lvm_store.Workload.default with txns }

let run ppf =
  let r1 = point ~shards:1 in
  let r4 = point ~shards:4 in
  let speedup =
    r1.Lvm_store.Workload.cycles_per_txn
    /. r4.Lvm_store.Workload.cycles_per_txn
  in
  Format.fprintf ppf
    "store scaling (%d txns): 1 shard %.1f cycles/txn; 4 shards %.1f \
     cycles/txn (%d cross-shard, %d shed); speedup %.2fx@."
    txns r1.Lvm_store.Workload.cycles_per_txn
    r4.Lvm_store.Workload.cycles_per_txn r4.Lvm_store.Workload.cross
    r4.Lvm_store.Workload.shed speedup;
  let open Lvm_tools.Output_stream.Envelope in
  let point shards (r : Lvm_store.Workload.result) =
    Obj
      [ ("shards", Int shards); ("executed", Int r.executed);
        ("cross", Int r.cross); ("shed", Int r.shed);
        ("requeued", Int r.requeued); ("wall_cycles", Int r.wall_cycles);
        ("cycles_per_txn", Float r.cycles_per_txn) ]
  in
  { Report.blob =
      Some
        (render ~kind:"store_scaling"
           [ ("txns", Int txns); ("single", point 1 r1);
             ("sharded", point 4 r4); ("speedup", Float speedup) ]);
    missed = [] }
