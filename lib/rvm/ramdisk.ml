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
  mutable entries : int;
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
    forced_len = 0; volatile_tail = false; charged_bytes = 0; entries = 0;
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

   Little-endian words: magic "WAL1", kind (0 data / 1 commit), txn, off,
   payload length, FNV-1a checksum over (kind, txn, off, len, payload),
   then the payload. Recovery fail-stops at the first record whose header
   or checksum does not parse: anything past it is a torn tail. *)

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

let scan t =
  let n = t.log_len in
  let data = t.log in
  let rec go pos acc =
    if pos = n then
      { s_entries = List.rev acc; s_valid_end = pos; s_torn = None }
    else if n - pos < header_bytes then stop pos acc "short header"
    else if get32 data pos <> wal_magic then stop pos acc "bad magic"
    else
      let kind = get32 data (pos + 4) in
      let txn = get32 data (pos + 8) in
      let off = get32 data (pos + 12) in
      let len = get32 data (pos + 16) in
      let ck = get32 data (pos + 20) in
      if len > n - pos - header_bytes then stop pos acc "short payload"
      else
        let payload = Bytes.sub data (pos + header_bytes) len in
        if checksum ~kind ~txn ~off ~len payload <> ck then
          stop pos acc "checksum mismatch"
        else
          let entry =
            match kind with
            | 0 -> Some (Data { txn; off; bytes = payload })
            | 1 -> Some (Commit { txn })
            | 2 -> Some (Snapshot { snap = txn })
            | 3 -> Some (Encoded { txn; payload })
            | _ -> None
          in
          match entry with
          | None -> stop pos acc "bad record kind"
          | Some e -> go (pos + header_bytes + len) (e :: acc)
  and stop pos acc reason =
    { s_entries = List.rev acc; s_valid_end = pos; s_torn = Some reason }
  in
  go 0 []

let entry_count t = List.length (scan t).s_entries
let wal_bytes t = t.charged_bytes

(* With a volatile tail (group commit), bytes appended since the last
   force never reached the disk: a crash loses them, so recovery must not
   see them. With [volatile_tail] off (group 1, the default) every append
   is treated as durable, exactly the pre-group-commit semantics. *)
let durable_len t =
  if t.volatile_tail then min t.log_len t.forced_len else t.log_len

let durable_bytes t = durable_len t

(* Incremental record walk for a log-tailing consumer (the MVCC applier):
   parse intact records from [off] up to the durable frontier, stopping —
   without error — at the first byte that does not parse as a whole
   record. A half-appended tail is simply "not yet": the consumer resumes
   from the returned offset once more bytes are appended/forced. *)
let wal_fold t ~off ~init ~f =
  let n = durable_len t in
  let data = t.log in
  let rec go pos acc =
    if n - pos < header_bytes then (acc, pos)
    else if get32 data pos <> wal_magic then (acc, pos)
    else
      let kind = get32 data (pos + 4) in
      let txn = get32 data (pos + 8) in
      let off' = get32 data (pos + 12) in
      let len = get32 data (pos + 16) in
      let ck = get32 data (pos + 20) in
      if len > n - pos - header_bytes then (acc, pos)
      else
        let payload = Bytes.sub data (pos + header_bytes) len in
        if checksum ~kind ~txn ~off:off' ~len payload <> ck then (acc, pos)
        else
          let entry =
            match kind with
            | 0 -> Some (Data { txn; off = off'; bytes = payload })
            | 1 -> Some (Commit { txn })
            | 2 -> Some (Snapshot { snap = txn })
            | 3 -> Some (Encoded { txn; payload })
            | _ -> None
          in
          match entry with
          | None -> (acc, pos)
          | Some e -> go (pos + header_bytes + len) (f acc ~off:pos e)
  in
  if off >= n then (init, off) else go off init

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

(* Recompute [entries]/[charged_bytes] for bytes received from a peer:
   the payload is whole serialized records, so a header walk suffices. *)
let charge_parsed t ~from =
  let rec go pos =
    if t.log_len - pos >= header_bytes && get32 t.log pos = wal_magic then begin
      let kind = get32 t.log (pos + 4) in
      let len = get32 t.log (pos + 16) in
      if len <= t.log_len - pos - header_bytes then begin
        t.entries <- t.entries + 1;
        t.charged_bytes <-
          t.charged_bytes + (if kind = 0 || kind = 3 then len + 12 else 8);
        go (pos + header_bytes + len)
      end
    end
  in
  go from

let log_append_raw t payload =
  let from = t.log_len in
  append_raw t payload ~len:(Bytes.length payload);
  charge_parsed t ~from;
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
  t.entries <- 0;
  t.charged_bytes <- 0;
  append_raw t log ~len:(Bytes.length log);
  charge_parsed t ~from:0;
  t.forced_len <- t.log_len

(* {1 The write path, with fault injection} *)

let machine t = Kernel.machine t.k

let wal_append t entry =
  (match entry with
  | Data { off; bytes; _ } ->
    if off < 0 || off + Bytes.length bytes > size t then
      Error.raise_
        (Error.Out_of_range { op = "Ramdisk.wal_append"; what = "offset";
                              value = off })
  | Encoded { payload; _ } ->
    let records, _ =
      Log_record.Codec.decode_fragment payload ~pos:0
        ~len:(Bytes.length payload)
    in
    List.iter
      (fun (r : Log_record.t) ->
        if r.Log_record.addr < 0 || r.Log_record.addr + r.Log_record.size > size t
        then
          Error.raise_
            (Error.Out_of_range { op = "Ramdisk.wal_append"; what = "offset";
                                  value = r.Log_record.addr }))
      records
  | Commit _ | Snapshot _ -> ());
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
    t.entries <- t.entries + 1;
    Bytes.set t.log pos
      (Char.chr (Char.code (Bytes.get t.log pos) lxor (1 lsl (bit land 7))))
  | Some _ | None ->
    append_raw t record ~len:total;
    t.charged_bytes <- t.charged_bytes + legacy;
    t.entries <- t.entries + 1

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

(* A Snapshot boundary is the commit marker of its snapshot id: Data
   records written under a snapshot id whose boundary never hit the disk
   are a torn snapshot and are never applied. *)
let committed_txns entries =
  List.filter_map
    (function
      | Commit { txn } -> Some txn
      | Snapshot { snap } -> Some snap
      | Data _ | Encoded _ -> None)
    entries

(* The committed set of one scan, built once so that checking an entry is
   a hash probe, not a walk of every marker. *)
let committed_set entries =
  let set = Int_table.create 64 in
  List.iter (fun txn -> Int_table.replace set txn ()) (committed_txns entries);
  set

(* Apply committed Data records in append order. Records carry absolute
   new values, so replay is idempotent. *)
let image_write_sized image ~off ~size v =
  if off >= 0 && off + size <= Bytes.length image then
    match size with
    | 4 -> Bytes.set_int32_le image off (Int32.of_int v)
    | 2 -> Bytes.set_uint16_le image off (v land 0xFFFF)
    | 1 -> Bytes.set_uint8 image off (v land 0xFF)
    | _ -> ()

let apply_committed ?committed image entries =
  let committed =
    match committed with Some c -> c | None -> committed_set entries
  in
  let applied = ref 0 in
  List.iter
    (function
      | Data { txn; off; bytes } when Int_table.mem committed txn ->
        incr applied;
        Bytes.blit bytes 0 image off (Bytes.length bytes)
      | Encoded { txn; payload } when Int_table.mem committed txn ->
        (* decode the codec stream; record addresses are image offsets *)
        let records, _ =
          Log_record.Codec.decode_fragment payload ~pos:0
            ~len:(Bytes.length payload)
        in
        List.iter
          (fun (r : Log_record.t) ->
            if not r.Log_record.pre_image then begin
              incr applied;
              image_write_sized image ~off:r.Log_record.addr
                ~size:r.Log_record.size r.Log_record.value
            end)
          records
      | Data _ | Encoded _ | Commit _ | Snapshot _ -> ())
    entries;
  !applied

let rebuild_log t entries =
  t.log_len <- 0;
  t.entries <- 0;
  t.charged_bytes <- 0;
  List.iter
    (fun e ->
      let record = serialize e in
      append_raw t record ~len:(Bytes.length record);
      t.charged_bytes <- t.charged_bytes + entry_bytes e;
      t.entries <- t.entries + 1)
    entries;
  (* a rebuilt log is durable in full (truncation and recovery both force
     their result) *)
  t.forced_len <- t.log_len

let truncate t =
  let s = scan t in
  let applied_words =
    List.fold_left (fun acc e -> acc + words (entry_bytes e)) 0 s.s_entries
  in
  Kernel.compute t.k (Rvm_costs.truncate_base
                      + (applied_words * Rvm_costs.truncate_per_word));
  let committed = committed_set s.s_entries in
  let uncommitted =
    List.filter
      (function
        | Data { txn; _ } | Encoded { txn; _ } ->
          not (Int_table.mem committed txn)
        | Commit _ | Snapshot _ -> false)
      s.s_entries
  in
  ignore (apply_committed ~committed t.image s.s_entries);
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
  let saved = t.log_len in
  t.log_len <- durable_len t;
  ignore (apply_committed image (scan t).s_entries);
  t.log_len <- saved;
  image

let recover t =
  (* drop the unforced tail first: those bytes were never durable *)
  t.log_len <- durable_len t;
  let s = scan t in
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
  let replayed = apply_committed image s.s_entries in
  let committed = List.length (committed_txns s.s_entries) in
  let report =
    { scanned = List.length s.s_entries; committed; replayed;
      truncated_bytes = truncated; torn = s.s_torn }
  in
  Lvm_obs.Ctx.event (Kernel.obs t.k)
    ~at:(Machine.time (machine t))
    (Lvm_obs.Event.Recovery { committed; replayed; truncated });
  (image, report)
