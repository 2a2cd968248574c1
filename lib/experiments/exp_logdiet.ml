open Lvm_machine
open Lvm_vm

let seed_overloads = 261

type overload = {
  overloads : int;
  cycles : int;
  stream_bytes : int;  (** encoded bytes emitted over the whole run *)
}

type wal = {
  wal_bytes : int;
  bytes_per_txn : float;
  replayed : int;
  image : Bytes.t;
}

let config_name (codec, depth) =
  Log_record.version_to_string codec
  ^ (if depth > 0 then Printf.sprintf "+co%d" depth else "")

let overload_point ~codec ~coalesce_depth =
  let seg_bytes = 64 * 1024 in
  let log_pages = 64 in
  let k = Kernel.create ~frames:256 ~codec ~coalesce_depth () in
  let sp = Kernel.create_space k in
  let seg = Kernel.create_segment k ~size:seg_bytes in
  let region = Kernel.create_region k seg in
  let ls = Kernel.create_log_segment k ~size:(log_pages * Addr.page_size) in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  for p = 0 to (seg_bytes / Addr.page_size) - 1 do
    ignore (Kernel.read_word k sp (base + (p * Addr.page_size)))
  done;
  Logger.flush (Machine.logger (Kernel.machine k));
  let perf = Kernel.perf k in
  Perf.reset perf;
  let pos = ref 0 in
  let recycle_at = (log_pages - 8) * Addr.page_size in
  let t0 = Kernel.time k in
  for i = 0 to 1999 do
    Kernel.compute k 20;
    (* a sequential burst (run-shaped) ... *)
    for w = 0 to 15 do
      Kernel.write_word k sp (base + !pos) (i + w);
      pos := (!pos + Addr.word_size) mod seg_bytes
    done;
    (* ... plus hot rewrites where only the last value matters *)
    for v = 0 to 7 do
      Kernel.write_word k sp base (i + v)
    done;
    (* each iteration ends at a commit boundary: hard sync drains the
       coalescing buffer, exactly what a transaction commit does *)
    Kernel.sync_log k ls;
    if Segment.write_pos ls >= recycle_at then
      Lvm_log.truncate_suffix (Lvm_log.of_segment k ls) ~new_end:0
  done;
  let cycles = Kernel.time k - t0 in
  let stream_bytes =
    match codec with
    | Log_record.V1 ->
      let snap = Kernel.snapshot k in
      if Lvm_obs.Snapshot.mem snap "log.bytes_encoded" then
        Lvm_obs.Snapshot.get snap "log.bytes_encoded"
      else 0
    | Log_record.V0 -> perf.Perf.log_records * Log_record.bytes
  in
  { overloads = perf.Perf.overloads; cycles; stream_bytes }

let wal_point ~codec ~coalesce_depth =
  let k = Kernel.create ~codec ~coalesce_depth () in
  let sp = Kernel.create_space k in
  let r =
    Lvm_rvm.Rlvm.make
      { Lvm_rvm.Rlvm.Config.default with log_pages = 64 }
      k sp ~size:4096
  in
  let disk = Lvm_rvm.Rlvm.disk r in
  (* let the WAL accumulate the whole run so recovery replays it all *)
  Lvm_rvm.Ramdisk.set_truncate_gate disk (Some (fun () -> false));
  let txns = 64 in
  for t = 1 to txns do
    Lvm_rvm.Rlvm.begin_txn r;
    for w = 0 to 15 do
      Lvm_rvm.Rlvm.write_word r ~off:(4 * (((t * 16) + w) mod 1024)) (t + w)
    done;
    for v = 1 to 8 do
      Lvm_rvm.Rlvm.write_word r ~off:0 ((t * 100) + v)
    done;
    Lvm_rvm.Rlvm.commit r
  done;
  let wal_bytes = Lvm_rvm.Ramdisk.wal_bytes disk in
  let image, rep = Lvm_rvm.Ramdisk.recover disk in
  { wal_bytes;
    bytes_per_txn = float_of_int wal_bytes /. float_of_int txns;
    replayed = rep.Lvm_rvm.Ramdisk.replayed; image }

let run ppf =
  let rows =
    List.map
      (fun ((codec, coalesce_depth) as config) ->
        ( config,
          overload_point ~codec ~coalesce_depth,
          wal_point ~codec ~coalesce_depth ))
      [ (Log_record.V0, 0); (Log_record.V0, 64); (Log_record.V1, 0);
        (Log_record.V1, 64) ]
  in
  List.iter
    (fun (config, o, w) ->
      Format.fprintf ppf
        "logdiet %-8s: %4d overloads, %7d stream B; WAL %.1f B/txn, \
         recovery replayed %d@."
        (config_name config) o.overloads o.stream_bytes w.bytes_per_txn
        w.replayed)
    rows;
  let find config =
    let _, o, w = List.find (fun (c, _, _) -> c = config) rows in
    (o, w)
  in
  let o_v0, w_v0 = find (Log_record.V0, 0) in
  let o_v1c, w_v1c = find (Log_record.V1, 64) in
  let reduction = 1. -. (w_v1c.bytes_per_txn /. w_v0.bytes_per_txn) in
  Format.fprintf ppf
    "logdiet headline: overloads %d -> %d (seed %d); WAL bytes/txn %.1f \
     -> %.1f (%.0f%% saved, target >= 30%%)@."
    o_v0.overloads o_v1c.overloads seed_overloads w_v0.bytes_per_txn
    w_v1c.bytes_per_txn (100. *. reduction);
  let missed =
    (if o_v1c.overloads >= min seed_overloads o_v0.overloads then
       [ Printf.sprintf "v1+coalesce overloads %d, need < min(%d, v0 %d)"
           o_v1c.overloads seed_overloads o_v0.overloads ]
     else [])
    @ (if reduction < 0.30 then
         [ Printf.sprintf "WAL bytes/txn reduction %.2f, need >= 0.30"
             reduction ]
       else [])
    @ List.filter_map
        (fun (config, _, w) ->
          if Bytes.equal w.image w_v0.image then None
          else
            Some
              (config_name config
              ^ " recovered image differs from the v0 baseline"))
        rows
  in
  let open Lvm_tools.Output_stream.Envelope in
  { Report.blob =
      Some
        (render ~kind:"logdiet"
           [ ("seed_overloads", Int seed_overloads);
             ("rows",
              List
                (List.map
                   (fun (((codec, depth) as config), o, w) ->
                     Obj
                       [ ("config", String (config_name config));
                         ("codec", String (Log_record.version_to_string codec));
                         ("coalesce_depth", Int depth);
                         ("overloads", Int o.overloads);
                         ("overload_cycles", Int o.cycles);
                         ("stream_bytes", Int o.stream_bytes);
                         ("wal_bytes", Int w.wal_bytes);
                         ("wal_bytes_per_txn", Float w.bytes_per_txn);
                         ("recovery_replayed", Int w.replayed) ])
                   rows));
             ("wal_reduction", Float reduction);
             ("overloads_v0", Int o_v0.overloads);
             ("overloads_v1_coalesce", Int o_v1c.overloads) ]);
    missed }
