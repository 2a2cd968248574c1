open Lvm_vm
module Durable = Lvm_rvm.Durable
module Ramdisk = Lvm_rvm.Ramdisk
module Rvm_costs = Lvm_rvm.Rvm_costs
module Lvm_error = Lvm.Lvm_error
module Config = Durable.Config

type t = {
  d : Durable.t;
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

let map config k space ~size =
  Lvm_error.guard @@ fun () ->
  let d = Durable.map ~op:"Fams.map" config k space ~size in
  let obs = Kernel.obs k in
  { d; next_snap = 1; epoch_absorbed_base = 0;
    c_snapshots = Lvm_obs.Ctx.counter obs "fams.snapshots";
    h_spans =
      Lvm_obs.Ctx.histogram obs ~name:"fams.snapshot_spans"
        ~bounds:(Lvm_obs.Histogram.pow2_bounds ~max_exp:10) }

let kernel t = t.d.k
let base t = t.d.base
let size t = t.d.size
let disk t = t.d.disk
let log t = t.d.log
let log_segment t = t.d.ls
let group t = Lvm_log.Batcher.group t.d.batcher
let pending_snapshots t = Lvm_log.Batcher.pending t.d.batcher
let snapshots t = t.next_snap - 1

let read_word t ~off = Lvm_error.guard @@ fun () -> Durable.read_word t.d ~off

(* A FAMS write is a plain store: no per-write bookkeeping charge (the
   hardware log and the second-level cache track the modification set).
   Only backpressure runs first, so a store whose log record would not
   fit surfaces as a typed [Log_exhausted] before it is issued. *)
let write_word t ~off v =
  Lvm_error.guard @@ fun () ->
  Durable.check_off t.d off;
  Durable.reserve t.d;
  Kernel.write_word t.d.k t.d.space (t.d.base + off) v

let words bytes = (bytes + 3) / 4

let read_span t ~off ~len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i
      (Char.chr (Kernel.seg_read_raw t.d.k t.d.working ~off:(off + i) ~size:1))
  done;
  b

let snapshot t =
  Lvm_error.guard @@ fun () ->
  let { Durable.k; ls; working; committed; region; _ } = t.d in
  Kernel.sync_log k ls;
  (* Absorption lost hardware log records, but not the modification set:
     the snapshot's redo comes from the second-level cache's per-line
     dirty tracking, so the snapshot is still exact. Record that it
     happened and clear the condition. *)
  let absorbed =
    Segment.absorbing ls || Segment.absorbed_crossings ls > t.epoch_absorbed_base
  in
  let log_records = Lvm.Log_reader.record_count k ls in
  let snap = t.next_snap in
  t.next_snap <- snap + 1;
  (* Dirty spans are whole cache lines, clipped to [size] (a word
     multiple), so every span is whole words. *)
  let spans =
    List.filter_map
      (fun (off, len) ->
        if off >= t.d.size then None
        else Some (off, min len (t.d.size - off)))
      (Kernel.dirty_spans k working)
  in
  let bytes = ref 0 in
  Durable.open_redo t.d ~txn:snap;
  List.iter
    (fun (off, len) ->
      (* building the redo record: RVM's per-record overhead plus the
         copy out of the working image *)
      Kernel.compute k
        (Rvm_costs.redo_record_overhead
         + (words len * Rvm_costs.redo_copy_per_word));
      bytes := !bytes + len;
      Durable.write_redo t.d ~off (read_span t ~off ~len))
    spans;
  (* The boundary record commits the snapshot: recovery applies a
     snapshot's redo records only when its boundary reached the disk. *)
  Durable.finish_redo t.d (Ramdisk.Snapshot { snap });
  (* Fold the modification set into the committed image, then reset the
     deferred-copy state: the committed image now holds the new values,
     so re-pointing every line back at its source preserves content. *)
  List.iter
    (fun (off, len) ->
      for i = 0 to len - 1 do
        Kernel.seg_write_raw k committed ~off:(off + i) ~size:1
          (Kernel.seg_read_raw k working ~off:(off + i) ~size:1)
      done)
    spans;
  Kernel.reset_deferred_segment k working;
  if Segment.absorbing ls then begin
    Kernel.set_logging_enabled k region false;
    Segment.set_absorbing ls false;
    Kernel.set_logging_enabled k region true
  end;
  (* The hardware log's job for this epoch is done: seal the whole span,
     recycling every full extent. *)
  ignore (Lvm_log.seal t.d.log);
  t.epoch_absorbed_base <- Segment.absorbed_crossings ls;
  let forced = Lvm_log.Batcher.pending t.d.batcher = 0 in
  Durable.truncate_if_forced t.d;
  Lvm_obs.Counter.incr t.c_snapshots;
  Lvm_obs.Histogram.observe t.h_spans (List.length spans);
  { snap; spans = List.length spans; bytes = !bytes; log_records; forced;
    absorbed }

let flush t =
  Lvm_error.guard @@ fun () ->
  Lvm_log.Batcher.flush t.d.batcher;
  Durable.truncate_if_forced t.d

let recover t =
  Lvm_error.guard @@ fun () ->
  let rep = Durable.recover t.d in
  t.epoch_absorbed_base <- Segment.absorbed_crossings t.d.ls;
  rep
