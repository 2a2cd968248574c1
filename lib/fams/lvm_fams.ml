open Lvm_machine
open Lvm_vm
module Ramdisk = Lvm_rvm.Ramdisk
module Rvm_costs = Lvm_rvm.Rvm_costs
module Lvm_error = Lvm.Lvm_error

module Config = struct
  type t = {
    log_pages : int;
    max_log_pages : int option;
    group : int;
  }

  let default = { log_pages = 32; max_log_pages = None; group = 1 }
end

type t = {
  k : Kernel.t;
  space : Address_space.t;
  working : Segment.t;
  committed : Segment.t;
  region : Region.t;
  ls : Segment.t;
  log : Lvm_log.t;
  base : int;
  size : int;
  disk : Ramdisk.t;
  batcher : Lvm_log.Batcher.batcher;
  max_log_pages : int;
  mutable next_snap : int;
  mutable epoch_absorbed_base : int;
  c_snapshots : Lvm_obs.Counter.counter;
  h_spans : Lvm_obs.Histogram.t;
}

type report = {
  snap : int;
  spans : int;
  bytes : int;
  log_records : int;
  forced : bool;
  absorbed : bool;
}

let report_to_string r =
  Printf.sprintf "snap=%d spans=%d bytes=%d log_records=%d forced=%b%s"
    r.snap r.spans r.bytes r.log_records r.forced
    (if r.absorbed then " absorbed" else "")

let map (config : Config.t) k space ~size =
  Lvm_error.guard @@ fun () ->
  let { Config.log_pages; max_log_pages; group } = config in
  if size <= 0 || size mod Addr.word_size <> 0 then
    Error.raise_
      (Error.Invalid
         { op = "Fams.map"; reason = "size must be a positive word multiple" });
  if log_pages <= 0 then
    Error.raise_
      (Error.Out_of_range
         { op = "Fams.map"; what = "log_pages"; value = log_pages });
  if group < 1 then
    Error.raise_
      (Error.Out_of_range { op = "Fams.map"; what = "group"; value = group });
  let max_log_pages =
    match max_log_pages with Some m -> max m log_pages | None -> 2 * log_pages
  in
  let working = Kernel.create_segment k ~size in
  let committed = Kernel.create_segment k ~size in
  Kernel.declare_source k ~dst:working ~src:committed ~offset:0;
  let region = Kernel.create_region k working in
  let log = Lvm_log.create k ~size:(log_pages * Addr.page_size) in
  let ls = Lvm_log.segment log in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k space region in
  let disk = Ramdisk.create k ~size in
  (* Group commit: with [group > 1] the WAL tail is volatile until the
     batcher forces it — a crash rolls back to the last forced snapshot
     boundary, the deal group commit makes. *)
  Ramdisk.set_volatile_tail disk (group > 1);
  let batcher =
    Lvm_log.Batcher.create ~obs:(Kernel.obs k) ~group
      ~force:(fun () -> Ramdisk.wal_force disk)
      ()
  in
  let obs = Kernel.obs k in
  { k; space; working; committed; region; ls; log; base; size; disk; batcher;
    max_log_pages; next_snap = 1; epoch_absorbed_base = 0;
    c_snapshots = Lvm_obs.Ctx.counter obs "fams.snapshots";
    h_spans =
      Lvm_obs.Ctx.histogram obs ~name:"fams.snapshot_spans"
        ~bounds:(Lvm_obs.Histogram.pow2_bounds ~max_exp:10) }

let kernel t = t.k
let base t = t.base
let size t = t.size
let disk t = t.disk
let log t = t.log
let log_segment t = t.ls
let group t = Lvm_log.Batcher.group t.batcher
let pending_snapshots t = Lvm_log.Batcher.pending t.batcher
let snapshots t = t.next_snap - 1

let check_off t off =
  if off < 0 || off + 4 > t.size then
    Error.raise_ (Error.Out_of_segment { segment = Segment.id t.working; off })

let read_word t ~off =
  Lvm_error.guard @@ fun () ->
  check_off t off;
  Kernel.read_word t.k t.space (t.base + off)

(* A FAMS write is a plain store: no per-write bookkeeping charge (the
   hardware log and the second-level cache track the modification set).
   Only backpressure runs first, so a store whose log record would not
   fit surfaces as a typed [Log_exhausted] before it is issued. *)
let write_word t ~off v =
  Lvm_error.guard @@ fun () ->
  check_off t off;
  Lvm_log.reserve t.log ~bytes:Lvm_machine.Log_record.bytes
    ~max_pages:t.max_log_pages;
  Kernel.write_word t.k t.space (t.base + off) v

let words bytes = (bytes + 3) / 4

let read_span t ~off ~len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i
      (Char.chr (Kernel.seg_read_raw t.k t.working ~off:(off + i) ~size:1))
  done;
  b

let snapshot t =
  Lvm_error.guard @@ fun () ->
  Kernel.sync_log t.k t.ls;
  (* Absorption lost hardware log records, but not the modification set:
     the snapshot's redo comes from the second-level cache's per-line
     dirty tracking, so the snapshot is still exact. Record that it
     happened and clear the condition. *)
  let absorbed =
    Segment.absorbing t.ls
    || Segment.absorbed_crossings t.ls > t.epoch_absorbed_base
  in
  let log_records =
    match Lvm_log.stream_version t.k t.ls with
    | Log_record.V0 -> Segment.write_pos t.ls / Lvm_machine.Log_record.bytes
    | Log_record.V1 -> Lvm.Log_reader.record_count t.k t.ls
  in
  let snap = t.next_snap in
  t.next_snap <- snap + 1;
  let spans =
    List.filter_map
      (fun (off, len) ->
        if off >= t.size then None
        else Some (off, min len (t.size - off)))
      (Kernel.dirty_spans t.k t.working)
  in
  let bytes = ref 0 in
  let charge_span len =
    (* building the redo record: RVM's per-record overhead plus the
       copy out of the working image *)
    Kernel.compute t.k
      (Rvm_costs.redo_record_overhead
       + (words len * Rvm_costs.redo_copy_per_word));
    bytes := !bytes + len
  in
  (match Lvm_log.stream_version t.k t.ls with
  | Log_record.V0 ->
    List.iter
      (fun (off, len) ->
        charge_span len;
        Ramdisk.wal_append t.disk
          (Ramdisk.Data { txn = snap; off; bytes = read_span t ~off ~len }))
      spans
  | Log_record.V1 ->
    (* Encoded redo: the whole snapshot's dirty spans as one compact V1
       stream of word records — sequential words of a span share the
       snapshot id as timestamp, so they collapse into runs. Spans that
       are not word-shaped (only possible at the clipped segment tail)
       fall back to plain [Data] records. *)
    let records = ref [] in
    List.iter
      (fun (off, len) ->
        charge_span len;
        if off land 3 = 0 && len land 3 = 0 then
          for i = 0 to (len / 4) - 1 do
            let woff = off + (4 * i) in
            records :=
              { Log_record.addr = woff;
                value = Kernel.seg_read_raw t.k t.working ~off:woff ~size:4;
                size = 4; pre_image = false; timestamp = snap }
              :: !records
          done
        else
          Ramdisk.wal_append t.disk
            (Ramdisk.Data { txn = snap; off; bytes = read_span t ~off ~len }))
      spans;
    match List.rev !records with
    | [] -> ()
    | rs ->
      Ramdisk.wal_append t.disk
        (Ramdisk.Encoded
           { txn = snap; payload = Log_record.Codec.encode_stream rs }));
  (* The boundary record commits the snapshot: recovery applies a
     snapshot's Data records only when its boundary reached the disk. *)
  Ramdisk.wal_append t.disk (Ramdisk.Snapshot { snap });
  Lvm_log.Batcher.note_commit t.batcher;
  (* Fold the modification set into the committed image, then reset the
     deferred-copy state: the committed image now holds the new values,
     so re-pointing every line back at its source preserves content. *)
  List.iter
    (fun (off, len) ->
      for i = 0 to len - 1 do
        Kernel.seg_write_raw t.k t.committed ~off:(off + i) ~size:1
          (Kernel.seg_read_raw t.k t.working ~off:(off + i) ~size:1)
      done)
    spans;
  Kernel.reset_deferred_segment t.k t.working;
  if Segment.absorbing t.ls then begin
    Kernel.set_logging_enabled t.k t.region false;
    Segment.set_absorbing t.ls false;
    Kernel.set_logging_enabled t.k t.region true
  end;
  (* The hardware log's job for this epoch is done: seal the whole span,
     recycling every full extent. *)
  ignore (Lvm_log.seal t.log);
  t.epoch_absorbed_base <- Segment.absorbed_crossings t.ls;
  let forced = Lvm_log.Batcher.pending t.batcher = 0 in
  (* WAL truncation applies records to the image, so it must not run
     past an unforced tail. *)
  if forced && Ramdisk.should_truncate t.disk then Ramdisk.truncate t.disk;
  Lvm_obs.Counter.incr t.c_snapshots;
  Lvm_obs.Histogram.observe t.h_spans (List.length spans);
  { snap; spans = List.length spans; bytes = !bytes; log_records; forced;
    absorbed }

let flush t =
  Lvm_error.guard @@ fun () ->
  Lvm_log.Batcher.flush t.batcher;
  if Ramdisk.should_truncate t.disk then Ramdisk.truncate t.disk

let recover t =
  Lvm_error.guard @@ fun () ->
  Lvm_log.Batcher.reset t.batcher;
  let image, rep = Ramdisk.recover t.disk in
  Kernel.set_logging_enabled t.k t.region false;
  (if Segment.absorbing t.ls then Segment.set_absorbing t.ls false);
  Lvm_log.truncate_suffix t.log ~new_end:0;
  for off = 0 to t.size - 1 do
    let byte = Char.code (Bytes.get image off) in
    Kernel.seg_write_raw t.k t.committed ~off ~size:1 byte;
    Kernel.seg_write_raw t.k t.working ~off ~size:1 byte
  done;
  Kernel.reset_deferred_segment t.k t.working;
  Kernel.set_logging_enabled t.k t.region true;
  t.epoch_absorbed_base <- Segment.absorbed_crossings t.ls;
  rep
