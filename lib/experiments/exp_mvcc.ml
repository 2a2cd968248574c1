module W = Lvm_store.Workload

let txns = 2000
let readers = 4
let target = 2.0

let point ~shards ~mode ~readers =
  let st =
    Lvm_store.Store.create
      { Lvm_store.Store.Config.default with shards; group = 16 }
  in
  (* Single-write transactions (as in the hotshard matrix): a
     multi-write Zipfian transaction is nearly always cross-shard and
     2PC would dominate both modes' wall clock, drowning the read-path
     difference the matrix isolates. *)
  W.run st
    { W.default with
      txns; cross_pct = 0; writes_per_txn = 1;
      dist = W.Zipfian { theta = 1.1 };
      read_pct = 95; read_mode = mode; readers }

(* Committed writes plus served reads per kilocycle of wall clock. *)
let throughput (r : W.result) =
  1000. *. float_of_int (r.executed + r.reads)
  /. float_of_int (max 1 r.wall_cycles)

let plural n = if n = 1 then "" else "s"

let run ppf =
  let rows =
    List.map
      (fun shards ->
        ( shards,
          point ~shards ~mode:W.Worker ~readers:1,
          point ~shards ~mode:W.Snapshot ~readers ))
      [ 1; 4 ]
  in
  List.iter
    (fun (shards, (w : W.result), (s : W.result)) ->
      Format.fprintf ppf
        "mvcc (%d ops, %d shard%s): worker %d reads %.2f ops/kcycle; \
         snapshot (%d readers) %d reads %.2f ops/kcycle — %.2fx@."
        txns shards (plural shards) w.reads (throughput w) readers s.reads
        (throughput s)
        (throughput s /. throughput w))
    rows;
  let scaling =
    List.map
      (fun readers -> (readers, point ~shards:4 ~mode:W.Snapshot ~readers))
      [ 1; 2; 4 ]
  in
  List.iter
    (fun (readers, r) ->
      Format.fprintf ppf
        "mvcc reader scaling (4 shards): %d reader%s %.2f ops/kcycle@."
        readers (plural readers) (throughput r))
    scaling;
  let _, w4, s4 = List.find (fun (shards, _, _) -> shards = 4) rows in
  let speedup4 = throughput s4 /. throughput w4 in
  Format.fprintf ppf "mvcc 4-shard snapshot speedup: %.2fx (target >= %.0fx)@."
    speedup4 target;
  let tp r = throughput (List.assoc r scaling) in
  let missed =
    (if speedup4 < target then
       [ Printf.sprintf
           "snapshot reads %.2fx worker reads at 4 shards (< %.0fx)" speedup4
           target ]
     else [])
    @
    if tp 4 < tp 1 then [ "snapshot reads do not scale with reader count" ]
    else []
  in
  let open Lvm_tools.Output_stream.Envelope in
  let point (r : W.result) =
    Obj
      [ ("executed", Int r.executed); ("reads", Int r.reads);
        ("failed", Int r.failed); ("wall_cycles", Int r.wall_cycles);
        ("ops_per_kcycle", Float (throughput r)) ]
  in
  { Report.blob =
      Some
        (render ~kind:"mvcc"
           [ ("ops", Int txns); ("read_pct", Int 95); ("theta", Float 1.1);
             ("readers", Int readers);
             ("rows",
              List
                (List.map
                   (fun (shards, w, s) ->
                     Obj
                       [ ("shards", Int shards); ("worker", point w);
                         ("snapshot", point s);
                         ("speedup", Float (throughput s /. throughput w)) ])
                   rows));
             ("reader_scaling",
              List
                (List.map
                   (fun (readers, r) ->
                     Obj [ ("readers", Int readers); ("point", point r) ])
                   scaling));
             ("speedup_at_4", Float speedup4) ]);
    missed }
