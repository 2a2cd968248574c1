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

(* {1 On-disk serialization}

   Little-endian words: magic "WAL1", kind (0 data / 1 commit / 2
   snapshot boundary / 3 encoded redo), txn, off, payload length, FNV-1a
   checksum over (kind, txn, off, len, payload), then the payload.
   [parse] below is the only reader of this layout, [seal] its only
   writer and [redo_encoded] the only decoder of encoded payloads; all
   three work in place on the log buffer. Recovery, truncation, log
   tailing, replica accounting and record-boundary chunking all go
   through them. *)

let wal_magic = 0x57414C31 (* "WAL1" *)
let header_bytes = 24
let kind_data = 0
let kind_commit = 1
let kind_snapshot = 2
let kind_encoded = 3

let is_marker kind = kind = kind_commit || kind = kind_snapshot

(* The cost model charges the record sizes of the paper's RVM log (value
   bytes + 12 bytes of redo header, 8 bytes per commit), independent of
   the on-disk serialization. *)
let legacy_bytes ~kind ~len = if is_marker kind then 8 else len + 12

let fnv_prime = 16777619
let fnv_offset = 0x811C9DC5
let mask32 = 0xFFFFFFFF

(* FNV-1a, carried unmasked: the low 32 bits of [(h lxor b) * prime]
   depend only on the low 32 bits of [h], so one mask at the end gives
   the 32-bit hash. *)
let fnv_byte h b = (h lxor b) * fnv_prime
let fnv_word h w =
  let h = fnv_byte h (w land 0xFF) in
  let h = fnv_byte h ((w lsr 8) land 0xFF) in
  let h = fnv_byte h ((w lsr 16) land 0xFF) in
  fnv_byte h ((w lsr 24) land 0xFF)

(* The hash after the kind word, for each kind the serializer writes. *)
let kind_seed = Array.init 4 (fun kind -> fnv_word fnv_offset kind)

(* The checksum of a record whose [len] payload bytes sit at [pos] of
   [b]. *)
let checksum_at b ~pos ~kind ~txn ~off ~len =
  let h =
    if kind >= 0 && kind < 4 then kind_seed.(kind)
    else fnv_word fnv_offset kind
  in
  let h = ref (fnv_word (fnv_word (fnv_word h txn) off) len) in
  for i = pos to pos + len - 1 do
    h := fnv_byte !h (Char.code (Bytes.get b i))
  done;
  !h land mask32

let checksum ~kind ~txn ~off payload =
  checksum_at payload ~pos:0 ~kind ~txn ~off ~len:(Bytes.length payload)

let get32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land mask32
let set32 b pos v = Bytes.set_int32_le b pos (Int32.of_int v)

(* Header fields of the record at [pos]. *)
let kind_at t pos = get32 t.log (pos + 4)
let txn_at t pos = get32 t.log (pos + 8)
let off_at t pos = get32 t.log (pos + 12)
let len_at t pos = get32 t.log (pos + 16)

(* Why no record parses at an offset, as [parse] reports it. *)
let short_header = -1
let bad_magic = -2
let short_payload = -3
let checksum_mismatch = -4
let bad_kind = -5

let why code =
  if code = short_header then "short header"
  else if code = bad_magic then "bad magic"
  else if code = short_payload then "short payload"
  else if code = checksum_mismatch then "checksum mismatch"
  else "bad record kind"

(* The offset just past the intact record at [pos] of the first [n] log
   bytes, or a negative code saying why none parses there. *)
let parse t ~n pos =
  let b = t.log in
  if n - pos < header_bytes then short_header
  else if get32 b pos <> wal_magic then bad_magic
  else
    let kind = get32 b (pos + 4) in
    let len = get32 b (pos + 16) in
    if len > n - pos - header_bytes then short_payload
    else if
      checksum_at b ~pos:(pos + header_bytes) ~kind ~txn:(get32 b (pos + 8))
        ~off:(get32 b (pos + 12)) ~len
      <> get32 b (pos + 20)
    then checksum_mismatch
    else if kind > kind_encoded then bad_kind
    else pos + header_bytes + len

(* Call [f pos next] on each intact record from [from] towards [n];
   returns the offset of the first byte not consumed. *)
let iter_intact t ~from ~n f =
  let rec go pos =
    if pos >= n then pos
    else
      let next = parse t ~n pos in
      if next < 0 then pos
      else begin
        f pos next;
        go next
      end
  in
  go from

(* Call [f pos next] on each record of [0, upto), a prefix [parse]
   already accepted whole. *)
let iter_parsed t ~upto f =
  let pos = ref 0 in
  while !pos < upto do
    let next = !pos + header_bytes + len_at t !pos in
    f !pos next;
    pos := next
  done

let payload_at t pos = Bytes.sub t.log (pos + header_bytes) (len_at t pos)

(* The record at [pos], which [parse] accepted, as an entry. *)
let entry_at t pos =
  let txn = txn_at t pos in
  match kind_at t pos with
  | 0 -> Data { txn; off = off_at t pos; bytes = payload_at t pos }
  | 1 -> Commit { txn }
  | 2 -> Snapshot { snap = txn }
  | _ -> Encoded { txn; payload = payload_at t pos }

(* Write the header of a record whose [len] payload bytes already sit at
   [pos + header_bytes]; the record's length. *)
let seal t ~pos ~kind ~txn ~off ~len =
  let b = t.log in
  set32 b pos wal_magic;
  set32 b (pos + 4) kind;
  set32 b (pos + 8) txn;
  set32 b (pos + 12) off;
  set32 b (pos + 16) len;
  set32 b (pos + 20)
    (checksum_at b ~pos:(pos + header_bytes) ~kind ~txn ~off ~len);
  header_bytes + len

let log_bytes t = t.log_len
let forced_bytes t = t.forced_len

(* Room for [len] more bytes past [log_len]. *)
let reserve t len =
  let need = t.log_len + len in
  if need > Bytes.length t.log then begin
    let log = Bytes.make (max need (2 * Bytes.length t.log)) '\000' in
    Bytes.blit t.log 0 log 0 t.log_len;
    t.log <- log
  end

let append_raw t src ~len =
  reserve t len;
  Bytes.blit src 0 t.log t.log_len len;
  t.log_len <- t.log_len + len

(* Make room for a record of [len] payload bytes past [log_len]; the
   offset its payload goes to. *)
let payload_pos t ~len =
  reserve t (header_bytes + len);
  t.log_len + header_bytes

(* {1 Scanning} *)

let entry_count t =
  let n = ref 0 in
  ignore (iter_intact t ~from:0 ~n:t.log_len (fun _ _ -> incr n));
  !n

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
  let n = durable_len t in
  let rec go pos acc =
    let next = if pos >= n then -1 else parse t ~n pos in
    if next < 0 then (acc, pos) else go next (f acc ~off:pos (entry_at t pos))
  in
  go off init

(* What recovery and truncation need to know of the intact records below
   [n] before changing anything: the transactions committed by a marker
   among them, the number of markers, the number of records, their words
   at the cost model's sizes, and where the intact prefix ends. *)
type survey = {
  ids : unit Int_table.t;
  markers : int;
  records : int;
  legacy_words : int;
  valid_end : int;
}

let survey t ~n =
  let committed = Int_table.create 64 in
  let markers = ref 0 and records = ref 0 and legacy_words = ref 0 in
  let valid_end =
    iter_intact t ~from:0 ~n (fun pos next ->
        let kind = kind_at t pos in
        incr records;
        legacy_words :=
          !legacy_words
          + words (legacy_bytes ~kind ~len:(next - pos - header_bytes));
        if is_marker kind then begin
          incr markers;
          Int_table.replace committed (txn_at t pos) ()
        end)
  in
  { ids = committed; markers = !markers; records = !records;
    legacy_words = !legacy_words; valid_end }

(* {1 Redo content} *)

(* The writes of an encoded payload at [b.[pos .. pos + len - 1]]: its
   record addresses are image offsets; pre-image records carry no
   redo. *)
let redo_encoded b ~pos ~len ~txn ~write =
  let records, _ =
    Log_record.Codec.decode_fragment b ~pos ~len:(pos + len)
  in
  List.iter
    (fun (r : Log_record.t) ->
      if not r.pre_image then
        write ~txn ~off:r.addr (Log_record.value_bytes r))
    records

(* A Snapshot boundary is the commit marker of its snapshot id: Data
   records written under a snapshot id whose boundary never hit the disk
   are a torn snapshot and are never applied. *)
let redo entry ~commit ~write =
  match entry with
  | Commit { txn } | Snapshot { snap = txn } -> commit txn
  | Data { txn; off; bytes } -> write ~txn ~off bytes
  | Encoded { txn; payload } ->
    redo_encoded payload ~pos:0 ~len:(Bytes.length payload) ~txn ~write

(* Write the redo of the Data or Encoded record at [pos], [len] payload
   bytes, into [image]; the number of writes. *)
let apply t image pos ~len =
  let payload = pos + header_bytes in
  if kind_at t pos = kind_data then begin
    Bytes.blit t.log payload image (off_at t pos) len;
    1
  end
  else begin
    let applied = ref 0 in
    redo_encoded t.log ~pos:payload ~len ~txn:0
      ~write:(fun ~txn:_ ~off bytes ->
        incr applied;
        Bytes.blit bytes 0 image off (Bytes.length bytes));
    !applied
  end

(* Replay the records of [0, upto) onto [image]: every redo write of a
   transaction in [committed], in append order. Records carry absolute
   new values, so replay is idempotent. Returns the writes applied. *)
let replay t image committed ~upto =
  let applied = ref 0 in
  iter_parsed t ~upto (fun pos next ->
      if
        (not (is_marker (kind_at t pos)))
        && Int_table.mem committed (txn_at t pos)
      then
        applied :=
          !applied + apply t image pos ~len:(next - pos - header_bytes));
  !applied

(* Rewrite the intact prefix [0, upto) in place, keeping the records
   [keep pos ~len] accepts: each slides down to just past the previous
   kept one, in the form [seal] writes it (a marker carries no offset or
   payload, an encoded redo no offset). The log is then exactly the kept
   records, durable in full: truncation and recovery both force their
   result. *)
let retain t ~upto ~keep =
  let dst = ref 0 and charged = ref 0 in
  iter_parsed t ~upto (fun pos next ->
      let len = next - pos - header_bytes in
      if keep pos ~len then begin
        let kind = kind_at t pos and txn = txn_at t pos in
        let off = off_at t pos in
        let len = if is_marker kind then 0 else len in
        if kind = kind_data || (off = 0 && pos + header_bytes + len = next) then
          Bytes.blit t.log pos t.log !dst (next - pos)
        else begin
          Bytes.blit t.log (pos + header_bytes) t.log (!dst + header_bytes) len;
          ignore (seal t ~pos:!dst ~kind ~txn ~off:0 ~len)
        end;
        dst := !dst + header_bytes + len;
        charged := !charged + legacy_bytes ~kind ~len
      end);
  t.log_len <- !dst;
  t.charged_bytes <- !charged;
  t.forced_len <- !dst

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
  let next = parse t ~n:t.log_len off in
  if next < 0 then None else Some next

(* Charge the records from byte [from] on (received from a peer) at the
   cost model's sizes. *)
let charge_from t ~from =
  ignore
    (iter_intact t ~from ~n:t.log_len (fun pos next ->
         let len = next - pos - header_bytes in
         t.charged_bytes <-
           t.charged_bytes + legacy_bytes ~kind:(kind_at t pos) ~len))

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

let check_range t ~off ~len =
  if off < 0 || off + len > size t then
    Error.raise_
      (Error.Out_of_range { op = "Ramdisk.wal_append"; what = "offset";
                            value = off })

(* Every append ends here, once its [len] payload bytes sit at
   [payload_pos]: charge the disk operation and the copy at the cost
   model's record size, consult the [Ramdisk_write] fault site, then seal
   the record past [log_len] and make it live — or lose, tear or corrupt
   it as the site says. *)
let append t ~kind ~txn ~off ~len =
  let legacy = legacy_bytes ~kind ~len in
  Kernel.compute t.k (Rvm_costs.disk_op_overhead
                      + (words legacy * Rvm_costs.disk_per_word));
  (* [fault_check] raises on an injected [Crash]: the machine dies before
     any byte of the record reaches the disk. *)
  match Machine.fault_check (machine t) ~site:Lvm_fault.Fault.Ramdisk_write with
  | Some (Lvm_fault.Fault.Torn_write { keep }) ->
    (* A torn write is necessarily the last: part of the record reaches
       the disk, then the machine dies. *)
    let total = seal t ~pos:t.log_len ~kind ~txn ~off ~len in
    t.log_len <- t.log_len + max 1 (min keep (total - 1));
    raise (Lvm_fault.Fault.Crashed
             { cycle = Machine.time (machine t);
               site = Lvm_fault.Fault.Ramdisk_write })
  | Some Lvm_fault.Fault.Failed_write ->
    (* Lost write: the driver believes it succeeded; no byte is durable. *)
    ()
  | Some (Lvm_fault.Fault.Bit_flip { byte; bit }) ->
    let total = seal t ~pos:t.log_len ~kind ~txn ~off ~len in
    let pos = t.log_len + (((byte mod total) + total) mod total) in
    t.log_len <- t.log_len + total;
    t.charged_bytes <- t.charged_bytes + legacy;
    Bytes.set t.log pos
      (Char.chr (Char.code (Bytes.get t.log pos) lxor (1 lsl (bit land 7))))
  | Some _ | None ->
    t.log_len <- t.log_len + seal t ~pos:t.log_len ~kind ~txn ~off ~len;
    t.charged_bytes <- t.charged_bytes + legacy

let wal_append t entry =
  redo entry ~commit:ignore ~write:(fun ~txn:_ ~off bytes ->
      check_range t ~off ~len:(Bytes.length bytes));
  let kind, txn, off, payload =
    match entry with
    | Data { txn; off; bytes } -> (kind_data, txn, off, bytes)
    | Commit { txn } -> (kind_commit, txn, 0, Bytes.empty)
    | Snapshot { snap } -> (kind_snapshot, snap, 0, Bytes.empty)
    | Encoded { txn; payload } -> (kind_encoded, txn, 0, payload)
  in
  let len = Bytes.length payload in
  let pos = payload_pos t ~len in
  Bytes.blit payload 0 t.log pos len;
  append t ~kind ~txn ~off ~len

let wal_append_value t ~txn ~off ~size ~value =
  check_range t ~off ~len:size;
  let pos = payload_pos t ~len:size in
  (match size with
  | 1 -> Bytes.set_uint8 t.log pos (value land 0xFF)
  | 2 -> Bytes.set_uint16_le t.log pos (value land 0xFFFF)
  | 4 -> set32 t.log pos value
  | _ -> invalid_arg "Ramdisk.wal_append_value: size must be 1, 2 or 4");
  append t ~kind:kind_data ~txn ~off ~len:size

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

(* Two passes over the intact prefix, in place: the first finds the
   committed transactions, the second folds their records into the image
   and slides the rest down. Bytes past a torn or corrupt record go. *)
let truncate t =
  let s = survey t ~n:t.log_len in
  Kernel.compute t.k (Rvm_costs.truncate_base
                      + (s.legacy_words * Rvm_costs.truncate_per_word));
  let before = t.log_len in
  retain t ~upto:s.valid_end ~keep:(fun pos ~len ->
      (not (is_marker (kind_at t pos)))
      && ((not (Int_table.mem s.ids (txn_at t pos)))
         || begin
           ignore (apply t t.image pos ~len);
           false
         end));
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
  let s = survey t ~n:(durable_len t) in
  let image = Bytes.copy t.image in
  ignore (replay t image s.ids ~upto:s.valid_end);
  image

let recover t =
  (* drop the unforced tail first: those bytes were never durable *)
  t.log_len <- durable_len t;
  let n = t.log_len in
  let s = survey t ~n in
  let truncated = n - s.valid_end in
  let torn =
    if s.valid_end < n then Some (why (parse t ~n s.valid_end)) else None
  in
  (match torn with
  | Some _ when truncated > 0 ->
    Lvm_obs.Ctx.event (Kernel.obs t.k)
      ~at:(Machine.time (machine t))
      (Lvm_obs.Event.Wal_torn { off = s.valid_end; len = truncated })
  | Some _ | None -> ());
  (* Repair the tail: drop the torn bytes so a second recovery — or new
     appends — start from an intact record boundary. *)
  retain t ~upto:s.valid_end ~keep:(fun _ ~len:_ -> true);
  let image = Bytes.copy t.image in
  let replayed = replay t image s.ids ~upto:t.log_len in
  let committed = s.markers in
  let report =
    { scanned = s.records; committed; replayed; truncated_bytes = truncated;
      torn }
  in
  Lvm_obs.Ctx.event (Kernel.obs t.k)
    ~at:(Machine.time (machine t))
    (Lvm_obs.Event.Recovery { committed; replayed; truncated });
  (image, report)
