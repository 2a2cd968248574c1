open Lvm_machine
open Lvm_vm

type entry =
  | Data of { txn : int; off : int; bytes : Bytes.t }
  | Commit of { txn : int }
  | Snapshot of { snap : int }
  | Encoded of { txn : int; payload : Bytes.t }
      (* kind 3: a V1 codec stream (version header + records) whose
         record addresses are image byte offsets — one compact record
         for a whole transaction's worth of redo *)

type t = {
  k : Kernel.t;
  image : Bytes.t;
  mutable log : Bytes.t; (* serialized WAL, first [log_len] bytes live *)
  mutable log_len : int;
  mutable forced_len : int; (* bytes known durable: forced to the disk *)
  mutable volatile_tail : bool; (* crash discards bytes past forced_len *)
  mutable charged_bytes : int; (* legacy cost-model accounting *)
  mutable truncate_gate : (unit -> bool) option;
      (* replication low-water mark: recycling the WAL is forbidden
         while an attached replica has not acked its bytes *)
  mutable on_truncate : (removed:int -> unit) option;
      (* observer of physical bytes consumed by truncation, so a
         log-shipping layer can keep its cumulative stream offsets *)
  c_forces : Lvm_obs.Counter.counter;
}

let create k ~size =
  if size <= 0 then
    Error.raise_
      (Error.Invalid { op = "Ramdisk.create"; reason = "size must be positive" });
  { k; image = Bytes.make size '\000'; log = Bytes.create 4096; log_len = 0;
    forced_len = 0; volatile_tail = false; charged_bytes = 0;
    truncate_gate = None; on_truncate = None;
    c_forces = Lvm_obs.Ctx.counter (Kernel.obs k) "rvm.wal_forces" }

let set_volatile_tail t v = t.volatile_tail <- v
let set_truncate_gate t g = t.truncate_gate <- g
let set_on_truncate t f = t.on_truncate <- f

let size t = Bytes.length t.image

let image_read t ~off ~len =
  if off < 0 || off + len > size t then
    Error.raise_
      (Error.Out_of_range { op = "Ramdisk.image_read"; what = "offset";
                            value = off });
  Bytes.sub t.image off len

let words bytes = (bytes + 3) / 4

(* The cost model charges the record sizes of the paper's RVM log (value
   bytes + 12 bytes of redo header, 8 bytes per commit), independent of
   the on-disk serialization below. *)
let entry_bytes = function
  | Data { bytes; _ } -> Bytes.length bytes + 12
  | Encoded { payload; _ } -> Bytes.length payload + 12
  | Commit _ | Snapshot _ -> 8

(* {1 On-disk serialization}

   Little-endian words: magic "WAL1", kind (0 data / 1 commit / 2
   snapshot boundary / 3 encoded redo), txn, off, payload length, FNV-1a
   checksum over (kind, txn, off, len, payload), then the payload.
   [parse] below is the only reader of this layout and [redo] the only
   decoder of payloads: recovery, truncation, log tailing, replica
   accounting and record-boundary chunking all go through them. *)

let wal_magic = 0x57414C31 (* "WAL1" *)
let header_bytes = 24

let fnv_prime = 16777619
let fnv_offset = 0x811C9DC5
let mask32 = 0xFFFFFFFF

let fnv_byte h b = (b lxor h) * fnv_prime land mask32
let fnv_word h w =
  let h = fnv_byte h (w land 0xFF) in
  let h = fnv_byte h ((w lsr 8) land 0xFF) in
  let h = fnv_byte h ((w lsr 16) land 0xFF) in
  fnv_byte h ((w lsr 24) land 0xFF)

let checksum ~kind ~txn ~off ~len payload =
  let h = fnv_word fnv_offset kind in
  let h = fnv_word h txn in
  let h = fnv_word h off in
  let h = fnv_word h len in
  let h = ref h in
  Bytes.iter (fun c -> h := fnv_byte !h (Char.code c)) payload;
  !h

let get32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land mask32
let set32 b pos v = Bytes.set_int32_le b pos (Int32.of_int v)

let serialize entry =
  let kind, txn, off, payload =
    match entry with
    | Data { txn; off; bytes } -> (0, txn, off, bytes)
    | Commit { txn } -> (1, txn, 0, Bytes.empty)
    | Snapshot { snap } -> (2, snap, 0, Bytes.empty)
    | Encoded { txn; payload } -> (3, txn, 0, payload)
  in
  let len = Bytes.length payload in
  let b = Bytes.create (header_bytes + len) in
  set32 b 0 wal_magic;
  set32 b 4 kind;
  set32 b 8 txn;
  set32 b 12 off;
  set32 b 16 len;
  set32 b 20 (checksum ~kind ~txn ~off ~len payload);
  Bytes.blit payload 0 b header_bytes len;
  b

(* The intact record at [pos] of the first [n] log bytes and the offset
   just past it, or why it does not parse. *)
let parse t ~n pos =
  let data = t.log in
  if n - pos < header_bytes then Error "short header"
  else if get32 data pos <> wal_magic then Error "bad magic"
  else
    let kind = get32 data (pos + 4) in
    let txn = get32 data (pos + 8) in
    let off = get32 data (pos + 12) in
    let len = get32 data (pos + 16) in
    if len > n - pos - header_bytes then Error "short payload"
    else
      let payload = Bytes.sub data (pos + header_bytes) len in
      if checksum ~kind ~txn ~off ~len payload <> get32 data (pos + 20) then
        Error "checksum mismatch"
      else
        let next = pos + header_bytes + len in
        match kind with
        | 0 -> Ok (Data { txn; off; bytes = payload }, next)
        | 1 -> Ok (Commit { txn }, next)
        | 2 -> Ok (Snapshot { snap = txn }, next)
        | 3 -> Ok (Encoded { txn; payload }, next)
        | _ -> Error "bad record kind"

(* Fold the intact records from [off] towards [n]: the accumulator, the
   offset of the first byte not consumed, and why the walk stopped short
   of [n], if it did. *)
let walk t ~n ~off ~init ~f =
  let rec go pos acc =
    if pos >= n then (acc, pos, None)
    else
      match parse t ~n pos with
      | Ok (e, next) -> go next (f acc ~off:pos e)
      | Error why -> (acc, pos, Some why)
  in
  go off init

let log_bytes t = t.log_len
let forced_bytes t = t.forced_len

let append_raw t src ~len =
  let need = t.log_len + len in
  if need > Bytes.length t.log then begin
    let log = Bytes.make (max need (2 * Bytes.length t.log)) '\000' in
    Bytes.blit t.log 0 log 0 t.log_len;
    t.log <- log
  end;
  Bytes.blit src 0 t.log t.log_len len;
  t.log_len <- t.log_len + len

(* {1 Scanning} *)

type scan = {
  s_entries : entry list; (* oldest first *)
  s_valid_end : int; (* bytes of intact record prefix *)
  s_torn : string option; (* why the scan fail-stopped, if it did *)
}

let scan t ~n =
  let rev, valid_end, torn =
    walk t ~n ~off:0 ~init:[] ~f:(fun acc ~off:_ e -> e :: acc)
  in
  { s_entries = List.rev rev; s_valid_end = valid_end; s_torn = torn }

let entry_count t = List.length (scan t ~n:t.log_len).s_entries
let wal_bytes t = t.charged_bytes

(* With a volatile tail (group commit), bytes appended since the last
   force never reached the disk: a crash loses them, so recovery must not
   see them. With [volatile_tail] off (group 1, the default) every append
   is treated as durable, exactly the pre-group-commit semantics. *)
let durable_len t =
  if t.volatile_tail then min t.log_len t.forced_len else t.log_len

let durable_bytes t = durable_len t

(* A half-appended or unforced tail is "not yet" for a log-tailing
   consumer, not an error: it resumes from the returned offset. *)
let wal_fold t ~off ~init ~f =
  let acc, next, _ = walk t ~n:(durable_len t) ~off ~init ~f in
  (acc, next)

(* {1 Redo content} *)

(* A Snapshot boundary is the commit marker of its snapshot id: Data
   records written under a snapshot id whose boundary never hit the disk
   are a torn snapshot and are never applied. An Encoded payload's record
   addresses are image offsets; pre-image records carry no redo. *)
let redo entry ~commit ~write =
  match entry with
  | Commit { txn } | Snapshot { snap = txn } -> commit txn
  | Data { txn; off; bytes } -> write ~txn ~off bytes
  | Encoded { txn; payload } ->
    let records, _ =
      Log_record.Codec.decode_fragment payload ~pos:0
        ~len:(Bytes.length payload)
    in
    List.iter
      (fun (r : Log_record.t) ->
        if not r.pre_image then
          write ~txn ~off:r.addr (Log_record.value_bytes r))
      records

(* {1 Log shipping}

   Raw, untimed access to the serialized log for the replication layer:
   the WAL byte stream is the replication stream, shipped in units of
   whole records and applied verbatim on a replica's disk. Cycle costs
   are not charged — the transport simulation has its own clock. *)

let log_read t ~off ~len =
  if off < 0 || len < 0 || off + len > t.log_len then
    Error.raise_
      (Error.Out_of_range { op = "Ramdisk.log_read"; what = "offset";
                            value = off });
  Bytes.sub t.log off len

let record_end t ~off =
  match parse t ~n:t.log_len off with
  | Ok (_, next) -> Some next
  | Error _ -> None

(* Charge the records from byte [from] on (received from a peer) at the
   cost model's sizes. *)
let charge_from t ~from =
  let charged, _, _ =
    walk t ~n:t.log_len ~off:from ~init:t.charged_bytes
      ~f:(fun acc ~off:_ e -> acc + entry_bytes e)
  in
  t.charged_bytes <- charged

let log_append_raw t payload =
  let from = t.log_len in
  append_raw t payload ~len:(Bytes.length payload);
  charge_from t ~from;
  (* received bytes are durable on arrival: the replica's disk plays the
     role of the primary's forced log *)
  t.forced_len <- t.log_len

let load_state t ~image ~log =
  if Bytes.length image <> size t then
    Error.raise_
      (Error.Invalid
         { op = "Ramdisk.load_state";
           reason = "image size must match the disk" });
  Bytes.blit image 0 t.image 0 (size t);
  t.log_len <- 0;
  t.charged_bytes <- 0;
  append_raw t log ~len:(Bytes.length log);
  charge_from t ~from:0;
  t.forced_len <- t.log_len

(* {1 The write path, with fault injection} *)

let machine t = Kernel.machine t.k

let wal_append t entry =
  redo entry ~commit:ignore ~write:(fun ~txn:_ ~off bytes ->
      if off < 0 || off + Bytes.length bytes > size t then
        Error.raise_
          (Error.Out_of_range { op = "Ramdisk.wal_append"; what = "offset";
                                value = off }));
  let legacy = entry_bytes entry in
  Kernel.compute t.k (Rvm_costs.disk_op_overhead
                      + (words legacy * Rvm_costs.disk_per_word));
  (* [fault_check] raises on an injected [Crash]: the machine dies before
     any byte of the record reaches the disk. *)
  let fault = Machine.fault_check (machine t) ~site:Lvm_fault.Fault.Ramdisk_write in
  let record = serialize entry in
  let total = Bytes.length record in
  match fault with
  | Some (Lvm_fault.Fault.Torn_write { keep }) ->
    (* A torn write is necessarily the last: part of the record reaches
       the disk, then the machine dies. *)
    let keep = max 1 (min keep (total - 1)) in
    append_raw t record ~len:keep;
    raise (Lvm_fault.Fault.Crashed
             { cycle = Machine.time (machine t);
               site = Lvm_fault.Fault.Ramdisk_write })
  | Some Lvm_fault.Fault.Failed_write ->
    (* Lost write: the driver believes it succeeded; no byte is durable. *)
    ()
  | Some (Lvm_fault.Fault.Bit_flip { byte; bit }) ->
    let pos = t.log_len + (((byte mod total) + total) mod total) in
    append_raw t record ~len:total;
    t.charged_bytes <- t.charged_bytes + legacy;
    Bytes.set t.log pos
      (Char.chr (Char.code (Bytes.get t.log pos) lxor (1 lsl (bit land 7))))
  | Some _ | None ->
    append_raw t record ~len:total;
    t.charged_bytes <- t.charged_bytes + legacy

let wal_force t =
  ignore (Machine.fault_check (machine t) ~site:Lvm_fault.Fault.Ramdisk_force);
  (* The force is durable before its cycle cost is charged: a crash
     injected during the charge finds the forced bytes on disk. *)
  t.forced_len <- t.log_len;
  Lvm_obs.Counter.incr t.c_forces;
  Kernel.compute t.k Rvm_costs.commit_force

let should_truncate t =
  t.charged_bytes > Rvm_costs.truncate_threshold_bytes
  && (match t.truncate_gate with None -> true | Some g -> g ())

(* Replay [entries] onto [image]: every redo write of a transaction
   committed anywhere in [entries], in append order. Records carry
   absolute new values, so replay is idempotent. Returns the committed
   set, the number of commit markers and the number of writes applied. *)
let replay image entries =
  let committed = Int_table.create 64 in
  let markers = ref 0 in
  let commit txn =
    incr markers;
    Int_table.replace committed txn ()
  in
  let no_write ~txn:_ ~off:_ _ = () in
  List.iter (fun e -> redo e ~commit ~write:no_write) entries;
  let applied = ref 0 in
  let write ~txn ~off bytes =
    if Int_table.mem committed txn then begin
      incr applied;
      Bytes.blit bytes 0 image off (Bytes.length bytes)
    end
  in
  List.iter (fun e -> redo e ~commit:ignore ~write) entries;
  (committed, !markers, !applied)

let rebuild_log t entries =
  t.log_len <- 0;
  t.charged_bytes <- 0;
  List.iter
    (fun e ->
      let record = serialize e in
      append_raw t record ~len:(Bytes.length record);
      t.charged_bytes <- t.charged_bytes + entry_bytes e)
    entries;
  (* a rebuilt log is durable in full (truncation and recovery both force
     their result) *)
  t.forced_len <- t.log_len

let truncate t =
  let s = scan t ~n:t.log_len in
  let applied_words =
    List.fold_left (fun acc e -> acc + words (entry_bytes e)) 0 s.s_entries
  in
  Kernel.compute t.k (Rvm_costs.truncate_base
                      + (applied_words * Rvm_costs.truncate_per_word));
  let committed, _, _ = replay t.image s.s_entries in
  let uncommitted =
    List.filter
      (function
        | Data { txn; _ } | Encoded { txn; _ } ->
          not (Int_table.mem committed txn)
        | Commit _ | Snapshot _ -> false)
      s.s_entries
  in
  let before = t.log_len in
  rebuild_log t uncommitted;
  match t.on_truncate with
  | Some f -> f ~removed:(before - t.log_len)
  | None -> ()

(* {1 Recovery} *)

type recovery = {
  scanned : int;
  committed : int;
  replayed : int;
  truncated_bytes : int;
  torn : string option;
}

let recovery_to_string r =
  Printf.sprintf "scanned=%d committed=%d replayed=%d truncated=%d torn=%s"
    r.scanned r.committed r.replayed r.truncated_bytes
    (match r.torn with None -> "none" | Some s -> s)

let recovered_image t =
  let image = Bytes.copy t.image in
  ignore (replay image (scan t ~n:(durable_len t)).s_entries);
  image

let recover t =
  (* drop the unforced tail first: those bytes were never durable *)
  t.log_len <- durable_len t;
  let s = scan t ~n:t.log_len in
  let truncated = t.log_len - s.s_valid_end in
  (match s.s_torn with
  | Some _ when truncated > 0 ->
    Lvm_obs.Ctx.event (Kernel.obs t.k)
      ~at:(Machine.time (machine t))
      (Lvm_obs.Event.Wal_torn { off = s.s_valid_end; len = truncated })
  | Some _ | None -> ());
  (* Repair the tail: drop the torn bytes so a second recovery — or new
     appends — start from an intact record boundary. *)
  rebuild_log t s.s_entries;
  let image = Bytes.copy t.image in
  let _, committed, replayed = replay image s.s_entries in
  let report =
    { scanned = List.length s.s_entries; committed; replayed;
      truncated_bytes = truncated; torn = s.s_torn }
  in
  Lvm_obs.Ctx.event (Kernel.obs t.k)
    ~at:(Machine.time (machine t))
    (Lvm_obs.Event.Recovery { committed; replayed; truncated });
  (image, report)
