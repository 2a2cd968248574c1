open Lvm_machine
open Lvm_vm

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
  log : Lvm_log.t; (* lifecycle handle over [ls] *)
  base : int;
  size : int;
  disk : Ramdisk.t;
  batcher : Lvm_log.Batcher.batcher;
  max_log_pages : int;
  mutable redo_txn : int;
  mutable redo_words : Log_record.t Squash.t option;
      (* the open redo's V1 words; [None] under V0 *)
}

(* Worst case a single transaction can log: one 16-byte record per word
   of the segment, plus the begin/end writes of the transaction cell.
   Under the V1 codec the stream also carries its version header and
   worst-case page-boundary pads. *)
let worst_case_log_bytes version ~size =
  let writes = (size / Addr.word_size) + 2 in
  match version with
  | Log_record.V0 -> writes * Log_record.bytes
  | Log_record.V1 -> Log_record.Codec.worst_case_bytes ~writes

let map ~op ?(txn_cell = false) (config : Config.t) k space ~size =
  let { Config.log_pages; max_log_pages; group } = config in
  if size <= 0 || size mod Addr.word_size <> 0 then
    Error.raise_
      (Error.Invalid { op; reason = "size must be a positive word multiple" });
  if log_pages <= 0 then
    Error.raise_
      (Error.Out_of_range { op; what = "log_pages"; value = log_pages });
  if group < 1 then
    Error.raise_ (Error.Out_of_range { op; what = "group"; value = group });
  let max_log_pages =
    match max_log_pages with Some m -> max m log_pages | None -> 2 * log_pages
  in
  let capacity = log_pages * Addr.page_size in
  if txn_cell then begin
    let version = Logger.codec (Machine.logger (Kernel.machine k)) in
    let requested = worst_case_log_bytes version ~size in
    if requested > capacity then
      Error.raise_ (Error.Log_capacity { op; requested; capacity })
  end;
  let seg_size = if txn_cell then size + Addr.word_size else size in
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
    max_log_pages; redo_txn = 0; redo_words = None }

let check_off t off =
  if off < 0 || off + 4 > t.size then
    Error.raise_ (Error.Out_of_segment { segment = Segment.id t.working; off })

let read_word t ~off =
  check_off t off;
  Kernel.read_word t.k t.space (t.base + off)

(* [Lvm_log.reserve] extends the log segment (graceful degradation) until
   [max_log_pages], then raises a typed [Log_exhausted] — before the
   store, so no record is silently absorbed into the default log page.
   [sync_log_pos]-based, so it costs no cycles on the common path. *)
let reserve t =
  Lvm_log.reserve t.log ~bytes:Log_record.bytes ~max_pages:t.max_log_pages

(* Under V1 the open redo parks its words in an unbounded squash: whole
   words never bypass it and no bound forces them out, so they leave
   only at [finish_redo], in first-touch order. *)
let open_redo t ~txn =
  t.redo_txn <- txn;
  t.redo_words <-
    (match Lvm_log.stream_version t.k t.ls with
    | Log_record.V0 -> None
    | Log_record.V1 -> Some (Squash.create ~depth:max_int))

let write_redo t ~off bytes =
  match t.redo_words with
  | None ->
    Ramdisk.wal_append t.disk (Ramdisk.Data { txn = t.redo_txn; off; bytes })
  | Some squash ->
    let len = Bytes.length bytes in
    if off mod Addr.word_size <> 0 || len mod Addr.word_size <> 0 then
      invalid_arg "Durable.write_redo: V1 redo takes whole words";
    for i = 0 to (len / Addr.word_size) - 1 do
      let addr = off + (Addr.word_size * i) in
      let value =
        Int32.to_int (Bytes.get_int32_le bytes (Addr.word_size * i))
        land 0xFFFFFFFF
      in
      (* Timestamps are the commit's id: redo replay is positional, and
         equal timestamps let sequential words group into runs and
         same-line rewrites into deltas. *)
      let w =
        { Log_record.addr; value; size = Addr.word_size; pre_image = false;
          timestamp = t.redo_txn }
      in
      ignore (Squash.write squash ~addr ~size:Addr.word_size w ~flush:ignore)
    done

let finish_redo t marker =
  (match Option.map Squash.drain t.redo_words with
  | None | Some [] -> ()
  | Some rs ->
    Ramdisk.wal_append t.disk
      (Ramdisk.Encoded
         { txn = t.redo_txn; payload = Log_record.Codec.encode_stream rs }));
  t.redo_words <- None;
  Ramdisk.wal_append t.disk marker;
  Lvm_log.Batcher.note_commit t.batcher

let truncate_if_forced t =
  if Lvm_log.Batcher.pending t.batcher = 0 && Ramdisk.should_truncate t.disk
  then Ramdisk.truncate t.disk

let recover t =
  (* Writes of the crashed epoch may still sit in the logger's coalescing
     buffer; drop them so they cannot flush into the fresh log later. *)
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
