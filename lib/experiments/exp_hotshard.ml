module W = Lvm_store.Workload

let txns = 1200
let theta = 1.1
let target = 0.70

let point ~shards ~dist ~split =
  let st =
    Lvm_store.Store.create { Lvm_store.Store.Config.default with shards }
  in
  (* Single-write transactions: the classic hot-key mix. A multi-write
     Zipfian transaction is nearly always cross-shard (independent
     draws land on different shards), and no routing change can buy
     back 2PC — splitting addresses queue imbalance, so that is what
     the matrix isolates. *)
  W.run st
    { W.default with txns; cross_pct = 0; writes_per_txn = 1; dist; split }

(* Eager advisor: at one write per transaction a [check_every] round
   must clear the [min_delta] write gate, the default 1.6x imbalance
   trigger would stop after one move (still ~1.4x above average), and
   the default merge threshold would send the hot buckets home again
   mid-run — so split down to 1.2x and never merge. *)
let split_spec =
  { W.check_every = 40; batch = 32; max_moves = 8;
    advisor =
      { Lvm_store.Splitter.Config.min_delta = 24; imbalance = 1.2;
        merge_below = 0.0 } }

let recovery (u : W.result) (zs : W.result) =
  u.cycles_per_txn /. zs.cycles_per_txn

let plural n = if n = 1 then "" else "s"

let run ppf =
  let rows =
    List.map
      (fun shards ->
        let uniform = point ~shards ~dist:W.Uniform ~split:None in
        let zipf = point ~shards ~dist:(W.Zipfian { theta }) ~split:None in
        let zipf_split =
          point ~shards ~dist:(W.Zipfian { theta }) ~split:(Some split_spec)
        in
        (shards, uniform, zipf, zipf_split))
      [ 1; 2; 4; 8 ]
  in
  List.iter
    (fun (shards, (u : W.result), (z : W.result), (zs : W.result)) ->
      Format.fprintf ppf
        "hotshard (%d txns, %d shard%s): uniform %.1f c/txn; zipf(%.1f) \
         %.1f c/txn; zipf+split %.1f c/txn (%d split%s, %d merge%s, %d \
         moved) — recovery %.2f@."
        txns shards (plural shards) u.cycles_per_txn theta z.cycles_per_txn
        zs.cycles_per_txn zs.splits (plural zs.splits) zs.merges
        (plural zs.merges) zs.moved (recovery u zs))
    rows;
  let _, u4, _, zs4 = List.find (fun (shards, _, _, _) -> shards = 4) rows in
  let recovery4 = recovery u4 zs4 in
  Format.fprintf ppf "hotshard 4-shard recovery: %.2f (target >= %.2f)@."
    recovery4 target;
  let open Lvm_tools.Output_stream.Envelope in
  let point (r : W.result) =
    Obj
      [ ("executed", Int r.executed); ("shed", Int r.shed);
        ("failed", Int r.failed); ("moved", Int r.moved);
        ("splits", Int r.splits); ("merges", Int r.merges);
        ("wall_cycles", Int r.wall_cycles);
        ("cycles_per_txn", Float r.cycles_per_txn) ]
  in
  { Report.blob =
      Some
        (render ~kind:"hotshard"
           [ ("txns", Int txns); ("theta", Float theta);
             ("rows",
              List
                (List.map
                   (fun (shards, u, z, zs) ->
                     Obj
                       [ ("shards", Int shards); ("uniform", point u);
                         ("zipf", point z); ("zipf_split", point zs);
                         ("recovery", Float (recovery u zs)) ])
                   rows));
             ("recovery_at_4", Float recovery4) ]);
    missed =
      (if recovery4 < target then
         [ Printf.sprintf "4-shard Zipfian+split recovery %.2f (< %.2f)"
             recovery4 target ]
       else []) }
