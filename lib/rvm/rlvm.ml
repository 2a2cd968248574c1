open Lvm_machine
open Lvm_vm

exception No_transaction
exception Transaction_open

type t = {
  k : Kernel.t;
  space : Address_space.t;
  working : Segment.t;
  committed : Segment.t;
  region : Region.t;
  ls : Segment.t;
  log : Lvm_log.t; (* lifecycle handle over [ls] *)
  base : int;
  size : int; (* usable bytes; the txn cell lives at [size] *)
  disk : Ramdisk.t;
  batcher : Lvm_log.Batcher.batcher;
  max_log_pages : int;
  mutable current : int option;
  mutable next_txn : int;
  mutable txn_absorbed_base : int;
      (* [Segment.absorbed_crossings ls] at [begin_txn]: if it grows, part
         of the transaction's redo information was absorbed (lost), even
         when a later [extend_log] resumed logging. *)
}

let cell_off t = t.size

module Config = struct
  type t = {
    log_pages : int;
    max_log_pages : int option;
    group : int;
  }

  let default = { log_pages = 32; max_log_pages = None; group = 1 }
end

(* Worst case a single transaction can log: one 16-byte record per word
   of the segment, plus the begin/end writes of the transaction cell.
   Under the V1 codec the stream also carries its version header and
   worst-case page-boundary pads. *)
let worst_case_log_bytes ?(version = Log_record.V0) ~size () =
  let writes = (size / Addr.word_size) + 2 in
  match version with
  | Log_record.V0 -> writes * Lvm_machine.Log_record.bytes
  | Log_record.V1 -> Log_record.Codec.worst_case_bytes ~writes

let make (config : Config.t) k space ~size =
  let { Config.log_pages; max_log_pages; group } = config in
  if size <= 0 || size mod Addr.word_size <> 0 then
    Error.raise_
      (Error.Invalid
         { op = "Rlvm.create";
           reason = "size must be a positive word multiple" });
  if log_pages <= 0 then
    Error.raise_
      (Error.Out_of_range
         { op = "Rlvm.create"; what = "log_pages"; value = log_pages });
  if group < 1 then
    Error.raise_
      (Error.Out_of_range { op = "Rlvm.create"; what = "group"; value = group });
  let max_log_pages =
    match max_log_pages with Some m -> max m log_pages | None -> 2 * log_pages
  in
  let capacity = log_pages * Addr.page_size in
  let version = Logger.codec (Machine.logger (Kernel.machine k)) in
  let requested = worst_case_log_bytes ~version ~size () in
  if requested > capacity then
    Error.raise_ (Error.Log_capacity { op = "Rlvm.create"; requested;
                                       capacity });
  let seg_size = size + Addr.word_size in
  let working = Kernel.create_segment k ~size:seg_size in
  let committed = Kernel.create_segment k ~size:seg_size in
  Kernel.declare_source k ~dst:working ~src:committed ~offset:0;
  let region = Kernel.create_region k working in
  let log = Lvm_log.create k ~size:capacity in
  let ls = Lvm_log.segment log in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k space region in
  let disk = Ramdisk.create k ~size in
  (* With group > 1 the WAL tail is volatile until the batcher forces it:
     a crash loses the unforced commits, which is the deal group commit
     makes. Group 1 (the default) forces every commit, exactly the
     ungrouped behavior. *)
  Ramdisk.set_volatile_tail disk (group > 1);
  let batcher =
    Lvm_log.Batcher.create ~obs:(Kernel.obs k) ~group
      ~force:(fun () -> Ramdisk.wal_force disk)
      ()
  in
  { k; space; working; committed; region; ls; log; base; size; disk; batcher;
    max_log_pages; current = None; next_txn = 1; txn_absorbed_base = 0 }

let kernel t = t.k
let base t = t.base
let size t = t.size
let disk t = t.disk
let log_segment t = t.ls
let log t = t.log
let in_txn t = t.current <> None
let last_txn_id t = t.next_txn - 1
let group t = Lvm_log.Batcher.group t.batcher
let pending_commits t = Lvm_log.Batcher.pending t.batcher
let flush_commits t = Lvm_log.Batcher.flush t.batcher

(* Backpressure: before a logged store, make sure its record cannot run
   the log segment off its last page. [reserve_log_room] extends the
   segment (graceful degradation) until [max_log_pages], then raises a
   typed [Log_exhausted] — before the store, so no record is silently
   absorbed into the default log page. [sync_log]-based, so it costs no
   cycles on the common path. *)
let reserve t =
  Lvm_log.reserve t.log ~bytes:Lvm_machine.Log_record.bytes
    ~max_pages:t.max_log_pages

let begin_txn t =
  if t.current <> None then raise Transaction_open;
  let id = t.next_txn in
  t.next_txn <- id + 1;
  t.current <- Some id;
  reserve t;
  t.txn_absorbed_base <- Segment.absorbed_crossings t.ls;
  (* the special logged location marking the transaction (Section 2.5) *)
  Kernel.write_word t.k t.space (t.base + cell_off t) id

let check_off t off =
  if off < 0 || off + 4 > t.size then
    Error.raise_ (Error.Out_of_segment { segment = Segment.id t.working; off })

let read_word t ~off =
  check_off t off;
  Kernel.read_word t.k t.space (t.base + off)

let write_word t ~off v =
  if t.current = None then raise No_transaction;
  check_off t off;
  reserve t;
  Kernel.compute t.k Rvm_costs.rlvm_write_overhead;
  Kernel.write_word t.k t.space (t.base + off) v

let commit ?(pace = fun () -> ()) t =
  let id = match t.current with None -> raise No_transaction | Some i -> i in
  (* If the logger fell back to absorbing records into the default log
     page, part of this transaction's redo information is already lost:
     committing would write an incomplete transaction to the WAL. This
     holds even if a later [extend_log] resumed logging: any absorbed
     crossing during the transaction is unrecoverable loss. *)
  Kernel.sync_log t.k t.ls;
  if Segment.absorbing t.ls
     || Segment.absorbed_crossings t.ls > t.txn_absorbed_base
  then
    Error.raise_
      (Error.Log_exhausted
         { segment = Segment.id t.ls; pos = Segment.write_pos t.ls;
           capacity = Segment.size t.ls });
  (* Build redo records for the write-ahead log straight from the LVM
     log — the records are already there; no set_range bookkeeping. *)
  (match Lvm_log.stream_version t.k t.ls with
  | Log_record.V0 ->
    Lvm.Log_reader.iter t.k t.ls ~f:(fun ~off:_ r ->
        pace ();
        match
          if r.Log_record.pre_image then None else Lvm.Log_reader.locate t.k r
        with
        | Some (seg, off)
          when Segment.id seg = Segment.id t.working && off < t.size ->
          Ramdisk.wal_append t.disk
            (Ramdisk.Data { txn = id; off; bytes = Log_record.value_bytes r })
        | Some _ | None -> ())
  | Log_record.V1 ->
    (* Encoded WAL path: squash the transaction's redo writes in log
       order (epoch coalescing — only the final value of each word needs
       to reach the WAL) and serialize the survivors as one compact V1
       stream. Record timestamps are normalized to the transaction id:
       redo replay is positional, and equal timestamps let sequential
       stores group into runs and same-line rewrites into deltas. *)
    let squash = Squash.create ~depth:max_int in
    let records = ref [] in
    let keep rs = records := List.rev_append rs !records in
    Lvm.Log_reader.iter t.k t.ls ~f:(fun ~off:_ r ->
        pace ();
        match
          if r.Log_record.pre_image then None else Lvm.Log_reader.locate t.k r
        with
        | Some (seg, off)
          when Segment.id seg = Segment.id t.working && off < t.size -> (
          let w = { r with Log_record.addr = off; timestamp = id } in
          match
            Squash.write squash ~addr:off ~size:r.Log_record.size w ~flush:keep
          with
          | Squash.Bypass -> records := w :: !records
          | Squash.Parked | Squash.Absorbed -> ())
        | Some _ | None -> ());
    keep (Squash.drain squash);
    if !records <> [] then
      Ramdisk.wal_append t.disk
        (Ramdisk.Encoded
           { txn = id;
             payload = Log_record.Codec.encode_stream (List.rev !records) }));
  Ramdisk.wal_append t.disk (Ramdisk.Commit { txn = id });
  (* group commit: force once per batch (group 1 forces right here) *)
  Lvm_log.Batcher.note_commit t.batcher;
  (* The force is a large pure-compute charge; yield before the CULT's
     timed accesses so a concurrent scheduler can keep event order. *)
  pace ();
  (* Fold the transaction into the committed image and truncate the log. *)
  ignore
    (Lvm.Checkpoint.cult_all t.k ~working:t.working ~checkpoint:t.committed
       ~log:t.ls);
  t.current <- None;
  Kernel.write_word t.k t.space (t.base + cell_off t) 0;
  (* WAL truncation applies records to the image, so it must not run past
     an unforced tail: wait until the batch is flushed. *)
  if Lvm_log.Batcher.pending t.batcher = 0 && Ramdisk.should_truncate t.disk
  then Ramdisk.truncate t.disk

let abort t =
  if t.current = None then raise No_transaction;
  (* Writes of the aborted transaction may still sit in the logger's
     coalescing buffer; drop them so they cannot flush into the fresh
     log later. *)
  Logger.discard_coalesced (Machine.logger (Kernel.machine t.k));
  Kernel.set_logging_enabled t.k t.region false;
  Kernel.reset_deferred_copy t.k t.space ~start:t.base
    ~len:(Region.size t.region);
  (if Segment.absorbing t.ls then Segment.set_absorbing t.ls false);
  Lvm_log.truncate_suffix t.log ~new_end:0;
  Kernel.set_logging_enabled t.k t.region true;
  t.current <- None;
  Kernel.write_word t.k t.space (t.base + cell_off t) 0

let recover t =
  t.current <- None;
  Logger.discard_coalesced (Machine.logger (Kernel.machine t.k));
  Lvm_log.Batcher.reset t.batcher;
  let image, report = Ramdisk.recover t.disk in
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
  report

let crash_and_recover t = ignore (recover t)
