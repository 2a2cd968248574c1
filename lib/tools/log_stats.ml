open Lvm_vm

type summary = {
  records : int;
  distinct_locations : int;
  redundant : int;
  redundancy_ratio : float;
}

let counts k ~watched ~log =
  let table = Hashtbl.create 64 in
  let records = ref 0 in
  Lvm.Log_reader.iter_in k log ~seg:watched ~f:(fun ~rec_off:_ ~off _ ->
      incr records;
      Hashtbl.replace table off
        (1 + Option.value ~default:0 (Hashtbl.find_opt table off)));
  (table, !records)

let summarize k ~watched ~log =
  let table, records = counts k ~watched ~log in
  let distinct_locations = Hashtbl.length table in
  let redundant = records - distinct_locations in
  {
    records;
    distinct_locations;
    redundant;
    redundancy_ratio =
      (if records = 0 then 0. else float_of_int redundant /. float_of_int records);
  }

(* {1 Bandwidth-diet analysis} *)

type diet = {
  version : Lvm_machine.Log_record.version;
  txns : int;
  bytes_per_txn : float;
  absorbed : int;
  flushed : int;
  absorption_ratio : float;
  raw : int;
  run : int;
  delta : int;
  pad : int;
  bytes_logical : int;
  bytes_encoded : int;
  sealed_bytes : int;
  active_bytes : int;
}

let extent_bytes log =
  let s = Lvm_log.stats log in
  let eb = s.Lvm_log.extent_pages * Lvm_machine.Addr.page_size in
  let sealed = ref 0 and active = ref 0 in
  for i = 0 to s.Lvm_log.extents - 1 do
    match Lvm_log.extent_state log i with
    | Lvm_log.Sealed | Lvm_log.Truncatable -> sealed := !sealed + eb
    | Lvm_log.Active ->
      active := !active + max 0 (min eb (s.Lvm_log.write_pos - (i * eb)))
    | Lvm_log.Recycled -> ()
  done;
  (!sealed, !active)

let diet k ~log ~txns =
  let snap = Kernel.snapshot k in
  let get name =
    if Lvm_obs.Snapshot.mem snap name then Lvm_obs.Snapshot.get snap name
    else 0
  in
  let version = Lvm_log.stream_version k (Lvm_log.segment log) in
  let absorbed = get "log.coalesce_absorbed" in
  let flushed = get "log.coalesce_flushed" in
  let bytes_logical = get "log.bytes_logical" in
  let bytes_encoded =
    match version with
    | Lvm_machine.Log_record.V1 -> get "log.bytes_encoded"
    | Lvm_machine.Log_record.V0 ->
      (* V0 writes no diet counters: every emitted record is 16 bytes. *)
      get "log_records" * Lvm_machine.Log_record.bytes
  in
  let sealed_bytes, active_bytes = extent_bytes log in
  {
    version;
    txns;
    bytes_per_txn =
      (if txns = 0 then 0. else float_of_int bytes_encoded /. float_of_int txns);
    absorbed;
    flushed;
    absorption_ratio =
      (let seen = absorbed + flushed in
       if seen = 0 then 0. else float_of_int absorbed /. float_of_int seen);
    raw = get "log.records_raw";
    run = get "log.records_run";
    delta = get "log.records_delta";
    pad = get "log.records_pad";
    bytes_logical;
    bytes_encoded;
    sealed_bytes;
    active_bytes;
  }

let top_rewritten ?(limit = 10) k ~watched ~log =
  let table, _ = counts k ~watched ~log in
  Hashtbl.fold (fun off n acc -> (off, n) :: acc) table []
  |> List.filter (fun (_, n) -> n > 1)
  |> List.sort (fun (o1, a) (o2, b) ->
         match compare b a with 0 -> compare o1 o2 | c -> c)
  |> List.filteri (fun i _ -> i < limit)
