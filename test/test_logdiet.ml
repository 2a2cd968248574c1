(* The logging-bandwidth diet: unit tests for the V1 record codec and the
   logger's coalescing buffer as seen end to end — stream headers, run
   formation, absorption counters, Rlvm/FAMS encoded-WAL commit and
   recovery, extent sealing of V1 streams — plus the property suite:
   codec round-trip with torn-tail truncation at every byte offset, and
   coalesced-vs-uncoalesced replay state identity over seeded
   interleavings. *)

open Lvm_machine
open Lvm_vm
module Sm = Lvm_fault.Splitmix

let check = Alcotest.(check int)

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( try int_of_string v with _ -> default)
  | None -> default

let cases = env_int "LVM_PROP_CASES" 1000
let suite_seed = env_int "LVM_TEST_SEED" 0x5eed

let check_prop ?(max_size = 256) ?(cases = cases) name prop =
  let failing = ref None in
  (try
     for case = 0 to cases - 1 do
       let case_seed = (suite_seed * 1_000_003) + case in
       let size = 1 + Sm.int (Sm.create ~seed:case_seed) ~bound:max_size in
       let fails sz =
         match prop (Sm.create ~seed:(case_seed * 2 + 1)) sz with
         | () -> None
         | exception e -> Some (Printexc.to_string e)
       in
       match fails size with
       | None -> ()
       | Some msg ->
         let rec shrink sz msg =
           if sz <= 1 then (sz, msg)
           else
             match fails (sz / 2) with
             | Some msg' -> shrink (sz / 2) msg'
             | None -> (sz, msg)
         in
         failing := Some (case, case_seed, shrink size msg);
         raise Exit
     done
   with Exit -> ());
  match !failing with
  | None -> ()
  | Some (case, case_seed, (sz, msg)) ->
    Alcotest.fail
      (Printf.sprintf
         "%s: case %d failed at size %d: %s\n\
          reproduce with LVM_TEST_SEED=%d (case seed %d)"
         name case sz msg suite_seed case_seed)

let prop name ?max_size ?cases:c p =
  let shown = match c with None -> cases | Some c -> c in
  Alcotest.test_case (Printf.sprintf "%s (%d cases)" name shown) `Quick
    (fun () -> check_prop ?max_size ?cases:c name p)

let expect cond fmt = Printf.ksprintf (fun s -> if not cond then failwith s) fmt

(* A kernel with one logged region over a fresh segment. *)
let setup ?(codec = Log_record.V0) ?(coalesce_depth = 0) ?(log_pages = 16)
    ?(seg_pages = 1) () =
  let k = Kernel.create ~codec ~coalesce_depth () in
  let sp = Kernel.create_space k in
  let seg = Kernel.create_segment k ~size:(seg_pages * Addr.page_size) in
  let region = Kernel.create_region k seg in
  let log = Lvm_log.create k ~size:(log_pages * Addr.page_size) in
  let ls = Lvm_log.segment log in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  (k, sp, seg, log, ls, base)

let stream_bytes k ls =
  let len = Segment.write_pos ls in
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (Kernel.seg_read_raw k ls ~off:i ~size:1))
  done;
  b

let counter k name =
  let snap = Kernel.snapshot k in
  if Lvm_obs.Snapshot.mem snap name then Lvm_obs.Snapshot.get snap name else 0

(* {1 Unit tests} *)

let test_stream_header_and_sniff () =
  let k, sp, _, log, ls, base = setup ~codec:Log_record.V1 () in
  Kernel.write_word k sp base 42;
  Kernel.sync_log k ls;
  Alcotest.(check bool)
    "stream_version v1" true
    (Lvm_log.stream_version k ls = Log_record.V1);
  let s = stream_bytes k ls in
  Alcotest.(check bool)
    "sniffs v1" true
    (Log_record.Codec.sniff_version s ~pos:0 ~len:(Bytes.length s)
     = Log_record.V1);
  check "one logical record" 1 (Lvm.Log_reader.record_count k ls);
  ignore log;
  (* and the default machine still writes the seed's bare v0 stream *)
  let k0, sp0, _, _, ls0, base0 = setup () in
  Kernel.write_word k0 sp0 base0 42;
  Kernel.sync_log k0 ls0;
  Alcotest.(check bool)
    "v0 by default" true
    (Lvm_log.stream_version k0 ls0 = Log_record.V0);
  check "16-byte stride" 0 (Segment.write_pos ls0 mod Log_record.bytes);
  let s0 = stream_bytes k0 ls0 in
  Alcotest.(check bool)
    "v0 never sniffs as v1" true
    (Log_record.Codec.sniff_version s0 ~pos:0 ~len:(Bytes.length s0)
     = Log_record.V0)

let test_coalesce_absorbs_rewrites () =
  let k, sp, _, _, ls, base = setup ~codec:Log_record.V1 ~coalesce_depth:8 () in
  for v = 1 to 20 do
    Kernel.write_word k sp base v
  done;
  Kernel.sync_log k ls;
  (* twenty stores to one word leave the buffer as a single record *)
  check "one record survives" 1 (Lvm.Log_reader.record_count k ls);
  check "absorbed" 19 (counter k "log.coalesce_absorbed");
  check "flushed" 1 (counter k "log.coalesce_flushed");
  let last = ref (-1) in
  Lvm.Log_reader.iter k ls ~f:(fun ~off:_ r -> last := r.Log_record.value);
  check "last value wins" 20 !last

let test_runs_form_on_flush () =
  let k, sp, _, _, ls, base =
    setup ~codec:Log_record.V1 ~coalesce_depth:16 ()
  in
  for i = 0 to 11 do
    Kernel.write_word k sp (base + (4 * i)) (100 + i)
  done;
  Kernel.sync_log k ls;
  check "all records decode" 12 (Lvm.Log_reader.record_count k ls);
  expect (counter k "log.records_run" >= 1) "expected a run record, got %d"
    (counter k "log.records_run");
  let logical = counter k "log.bytes_logical" in
  let encoded = counter k "log.bytes_encoded" in
  expect (encoded < logical) "run encoding should shrink: %d encoded / %d raw"
    encoded logical;
  (* the decoded stream carries the right values in order *)
  let values = ref [] in
  Lvm.Log_reader.iter k ls ~f:(fun ~off:_ r ->
      values := r.Log_record.value :: !values);
  Alcotest.(check (list int))
    "values" (List.init 12 (fun i -> 100 + i)) (List.rev !values)

let test_seal_and_rewrite_v1 () =
  let k, sp, _, log, ls, base =
    setup ~codec:Log_record.V1 ~coalesce_depth:4 ~log_pages:16 ()
  in
  for i = 0 to 63 do
    Lvm_log.reserve log ~bytes:Log_record.bytes ~max_pages:max_int;
    Kernel.write_word k sp (base + (4 * (i mod 256))) i
  done;
  let sealed = Lvm_log.seal log in
  expect (sealed > 0) "first seal sealed nothing";
  check "second seal is a no-op" 0 (Lvm_log.seal log);
  (* the re-armed stream opens with a fresh header and keeps decoding *)
  for i = 0 to 7 do
    Kernel.write_word k sp (base + (4 * i)) (1000 + i)
  done;
  Kernel.sync_log k ls;
  check "fresh epoch records" 8 (Lvm.Log_reader.record_count k ls);
  let s = stream_bytes k ls in
  Alcotest.(check bool)
    "fresh header" true
    (Log_record.Codec.starts_with_header s ~pos:0 ~len:(Bytes.length s))

let test_wal_mixed_formats_recover () =
  (* a WAL holding seed-format Data records next to kind-3 Encoded
     records recovers both, and an uncommitted encoded tail stays
     invisible *)
  let k = Kernel.create () in
  let disk = Lvm_rvm.Ramdisk.create k ~size:256 in
  Lvm_rvm.Ramdisk.wal_append disk
    (Lvm_rvm.Ramdisk.Data
       { txn = 1; off = 0; bytes = Bytes.of_string "\x11\x22\x33\x44" });
  Lvm_rvm.Ramdisk.wal_append disk (Lvm_rvm.Ramdisk.Commit { txn = 1 });
  let records =
    [ { Log_record.addr = 8; value = 0xAABB; size = 4; pre_image = false;
        timestamp = 2 };
      { Log_record.addr = 12; value = 0xCCDD; size = 4; pre_image = false;
        timestamp = 2 } ]
  in
  Lvm_rvm.Ramdisk.wal_append disk
    (Lvm_rvm.Ramdisk.Encoded
       { txn = 2; payload = Log_record.Codec.encode_stream records });
  Lvm_rvm.Ramdisk.wal_append disk (Lvm_rvm.Ramdisk.Commit { txn = 2 });
  Lvm_rvm.Ramdisk.wal_append disk
    (Lvm_rvm.Ramdisk.Encoded
       { txn = 3;
         payload =
           Log_record.Codec.encode_stream
             [ { Log_record.addr = 16; value = 99; size = 4;
                 pre_image = false; timestamp = 3 } ] });
  let image, rep = Lvm_rvm.Ramdisk.recover disk in
  check "both txns committed" 2 rep.Lvm_rvm.Ramdisk.committed;
  check "data record applied" 0x44332211
    (Int32.to_int (Bytes.get_int32_le image 0) land 0xFFFFFFFF);
  check "encoded word 1" 0xAABB (Int32.to_int (Bytes.get_int32_le image 8));
  check "encoded word 2" 0xCCDD (Int32.to_int (Bytes.get_int32_le image 12));
  check "uncommitted encoded txn invisible" 0
    (Int32.to_int (Bytes.get_int32_le image 16))

let test_rlvm_v1_commit_and_recover () =
  let run ~codec ~coalesce_depth =
    let k = Kernel.create ~codec ~coalesce_depth () in
    let sp = Kernel.create_space k in
    let r = Lvm_rvm.Rlvm.make Lvm_rvm.Rlvm.Config.default k sp ~size:1024 in
    Lvm_rvm.Rlvm.begin_txn r;
    for i = 0 to 15 do
      Lvm_rvm.Rlvm.write_word r ~off:(4 * i) (i + 1)
    done;
    (* hot rewrites: only the last value should reach the WAL *)
    for v = 1 to 8 do
      Lvm_rvm.Rlvm.write_word r ~off:0 (1000 + v)
    done;
    Lvm_rvm.Rlvm.commit r;
    let wal = Lvm_rvm.Ramdisk.wal_bytes (Lvm_rvm.Rlvm.disk r) in
    Lvm_rvm.Rlvm.begin_txn r;
    Lvm_rvm.Rlvm.write_word r ~off:64 7777;
    Lvm_rvm.Rlvm.abort r;
    Lvm_rvm.Rlvm.crash_and_recover r;
    check "recovered hot word" 1008 (Lvm_rvm.Rlvm.read_word r ~off:0);
    for i = 1 to 15 do
      check "recovered word" (i + 1) (Lvm_rvm.Rlvm.read_word r ~off:(4 * i))
    done;
    check "aborted write invisible" 0 (Lvm_rvm.Rlvm.read_word r ~off:64);
    wal
  in
  let v0 = run ~codec:Log_record.V0 ~coalesce_depth:0 in
  let v1 = run ~codec:Log_record.V1 ~coalesce_depth:32 in
  expect (v1 < v0) "encoded WAL should be smaller: v1 %d vs v0 %d" v1 v0;
  expect
    (float_of_int v1 <= 0.7 *. float_of_int v0)
    "expected >= 30%% fewer WAL bytes per txn: v1 %d vs v0 %d" v1 v0

let test_fams_v1_snapshot_and_recover () =
  let ok what = function
    | Ok v -> v
    | Error e -> Alcotest.fail (what ^ ": " ^ Lvm.Lvm_error.to_string e)
  in
  let k = Kernel.create ~codec:Log_record.V1 ~coalesce_depth:16 () in
  let sp = Kernel.create_space k in
  let f =
    ok "map"
      (Lvm_fams.map
         { Lvm_fams.Config.default with log_pages = 8 }
         k sp ~size:512)
  in
  for i = 0 to 31 do
    ok "write" (Lvm_fams.write_word f ~off:(4 * i) (i * 3))
  done;
  let r1 = ok "snapshot" (Lvm_fams.snapshot f) in
  expect (r1.Lvm_fams.spans > 0) "snapshot saw no dirty spans";
  ok "write" (Lvm_fams.write_word f ~off:0 424242);
  let _r2 = ok "snapshot" (Lvm_fams.snapshot f) in
  ok "write" (Lvm_fams.write_word f ~off:4 555);
  (* the unsnapshotted write must roll back *)
  ignore (ok "recover" (Lvm_fams.recover f));
  check "rolled back to snapshot 2" 424242 (ok "read" (Lvm_fams.read_word f ~off:0));
  check "unsnapshotted write lost" 3 (ok "read" (Lvm_fams.read_word f ~off:4));
  for i = 2 to 31 do
    check "snapshot word" (i * 3) (ok "read" (Lvm_fams.read_word f ~off:(4 * i)))
  done

(* Writes of the epoch that crashed may still sit in the logger's
   coalescing buffer when [recover] runs; recovery must drop them rather
   than let them flush into the fresh log. *)
let test_fams_recover_logs_nothing () =
  let ok what = function
    | Ok v -> v
    | Error e -> Alcotest.fail (what ^ ": " ^ Lvm.Lvm_error.to_string e)
  in
  List.iter
    (fun codec ->
      let k = Kernel.create ~codec ~coalesce_depth:16 () in
      let sp = Kernel.create_space k in
      let f = ok "map" (Lvm_fams.map Lvm_fams.Config.default k sp ~size:512) in
      for i = 0 to 15 do
        ok "write" (Lvm_fams.write_word f ~off:(4 * i) i)
      done;
      ignore (ok "snapshot" (Lvm_fams.snapshot f));
      for i = 0 to 5 do
        ok "write" (Lvm_fams.write_word f ~off:(64 + (4 * i)) (100 + i))
      done;
      let records () = (Kernel.perf k).Perf.log_records in
      let before = records () in
      ignore (ok "recover" (Lvm_fams.recover f));
      Kernel.sync_log k (Lvm_fams.log_segment f);
      check
        (Log_record.version_to_string codec ^ ": recover logs no record")
        before (records ());
      check "crashed epoch rolled back" 0 (ok "read" (Lvm_fams.read_word f ~off:64)))
    [ Log_record.V0; Log_record.V1 ]

(* {1 Properties} *)

let mask_of_size = function 1 -> 0xFF | 2 -> 0xFFFF | _ -> 0xFFFFFFFF

(* Batches mixing the shapes the codec cares about: sequential same-page
   same-timestamp word clusters (runs), same-line rewrites (deltas), and
   arbitrary raw records (any size, pre-images included). *)
let random_batch rng n =
  let records = ref [] in
  let count = ref 0 in
  let ts = ref 1 in
  let push r = records := r :: !records; incr count in
  while !count < n do
    ts := !ts + Sm.int rng ~bound:3;
    let page = Sm.int rng ~bound:8 in
    match Sm.int rng ~bound:10 with
    | 0 | 1 | 2 | 3 ->
      (* a run-shaped cluster *)
      let k = 2 + Sm.int rng ~bound:(min 20 (n - !count + 1)) in
      let words = Addr.page_size / 4 in
      let w0 = Sm.int rng ~bound:(max 1 (words - k)) in
      for i = 0 to k - 1 do
        push
          { Log_record.addr = (page * Addr.page_size) + (4 * (w0 + i));
            value = Int64.to_int (Int64.logand (Sm.next_u64 rng) 0xFFFFFFFFL);
            size = 4; pre_image = false; timestamp = !ts }
      done
    | 4 | 5 ->
      (* a delta-shaped pair: two words in one 64-byte line, same ts *)
      let line = Sm.int rng ~bound:(Addr.page_size / 64) in
      let a = (page * Addr.page_size) + (64 * line) + (4 * Sm.int rng ~bound:16)
      and b =
        (page * Addr.page_size) + (64 * line) + (4 * Sm.int rng ~bound:16)
      in
      push
        { Log_record.addr = a; value = Sm.int rng ~bound:0x10000; size = 4;
          pre_image = false; timestamp = !ts };
      push
        { Log_record.addr = b; value = Sm.int rng ~bound:0x10000; size = 4;
          pre_image = false; timestamp = !ts }
    | _ ->
      let size = List.nth [ 1; 2; 4 ] (Sm.int rng ~bound:3) in
      push
        { Log_record.addr =
            (page * Addr.page_size) + (size * Sm.int rng ~bound:64);
          value =
            Int64.to_int (Int64.logand (Sm.next_u64 rng) 0xFFFFFFFFL)
            land mask_of_size size;
          size; pre_image = Sm.bool rng; timestamp = !ts }
  done;
  List.rev !records

let prop_codec_roundtrip rng size =
  let records = random_batch rng size in
  let s = Log_record.Codec.encode_stream records in
  let len = Bytes.length s in
  expect
    (Log_record.Codec.sniff_version s ~pos:0 ~len = Log_record.V1)
    "stream does not sniff as v1";
  let decoded, valid_end = Log_record.Codec.decode_fragment s ~pos:0 ~len in
  expect (valid_end = len) "intact stream truncated at %d/%d" valid_end len;
  expect
    (List.length decoded = List.length records)
    "decoded %d of %d records" (List.length decoded) (List.length records);
  List.iter2
    (fun a b ->
      expect (Log_record.equal a b) "record mismatch: %s vs %s"
        (Format.asprintf "%a" Log_record.pp a)
        (Format.asprintf "%a" Log_record.pp b))
    decoded records;
  (* torn-tail truncation at every byte offset: the decode fail-stops at
     a container boundary and yields an exact prefix *)
  let arr = Array.of_list records in
  for cut = 0 to len - 1 do
    let part = Bytes.sub s 0 cut in
    let rs, ve = Log_record.Codec.decode_fragment part ~pos:0 ~len:cut in
    expect (ve <= cut) "valid_end %d past the cut %d" ve cut;
    List.iteri
      (fun i r ->
        expect
          (i < Array.length arr && Log_record.equal r arr.(i))
          "cut %d: decoded record %d is not a prefix" cut i)
      rs
  done

(* Identical write/sync interleavings against a coalescing V1 machine and
   an uncoalescing one: replaying either log must reconstruct the same
   final bytes, which must also be what memory holds. *)
let prop_coalesced_replay_identity rng size =
  let mk ~coalesce_depth =
    setup ~codec:Log_record.V1 ~coalesce_depth ~log_pages:32 ()
  in
  let a = mk ~coalesce_depth:(1 + Sm.int rng ~bound:32) in
  let b = mk ~coalesce_depth:0 in
  let ops =
    List.init size (fun _ ->
        match Sm.int rng ~bound:20 with
        | 0 -> `Sync
        | 1 | 2 ->
          let sz = if Sm.bool rng then 1 else 2 in
          `Write
            ( sz * Sm.int rng ~bound:(Addr.page_size / sz),
              sz, Sm.int rng ~bound:(mask_of_size sz + 1) )
        | _ ->
          `Write
            ( 4 * Sm.int rng ~bound:(Addr.page_size / 4),
              4,
              Int64.to_int (Int64.logand (Sm.next_u64 rng) 0xFFFFFFFFL) ))
  in
  let apply (k, sp, _seg, log, ls, base) =
    List.iter
      (fun op ->
        Lvm_log.reserve log ~bytes:Log_record.bytes ~max_pages:max_int;
        match op with
        | `Sync -> Kernel.sync_log k ls
        | `Write (off, size, v) -> Kernel.write k sp ~vaddr:(base + off) ~size v)
      ops;
    Kernel.sync_log k ls
  in
  apply a;
  apply b;
  let replay (k, _sp, seg, _log, ls, _base) =
    let image = Bytes.make Addr.page_size '\000' in
    Lvm.Log_reader.iter k ls ~f:(fun ~off:_ r ->
        let off = Lvm.Log_reader.located k ~seg r in
        if off >= 0 then
          match r.Log_record.size with
          | 1 -> Bytes.set_uint8 image off (r.Log_record.value land 0xFF)
          | 2 -> Bytes.set_uint16_le image off (r.Log_record.value land 0xFFFF)
          | _ -> Bytes.set_int32_le image off (Int32.of_int r.Log_record.value));
    image
  in
  let ia = replay a and ib = replay b in
  expect (Bytes.equal ia ib) "coalesced replay diverged from uncoalesced";
  let (k, _, seg, _, _, _) = a in
  for off = 0 to Addr.page_size - 1 do
    let m = Kernel.seg_read_raw k seg ~off ~size:1 in
    expect
      (m = Char.code (Bytes.get ia off))
      "replayed byte %d is %d, memory holds %d" off
      (Char.code (Bytes.get ia off))
      m
  done;
  let (ka, _, _, _, lsa, _) = a and (kb, _, _, _, lsb, _) = b in
  expect
    (Lvm.Log_reader.record_count ka lsa <= Lvm.Log_reader.record_count kb lsb)
    "coalescing produced more records than not coalescing"

let any_word rng = Int64.to_int (Int64.logand (Sm.next_u64 rng) 0xFFFFFFFFL)

(* Seeded interleavings on a coalescing V1 machine and on the seed's V0
   machine land on identical committed states, tracked against a shadow
   model: RLVM transactions (write / commit / abort / crash), then FAMS
   epochs (write / snapshot / recover). Values span all 32 bits, so
   words with bit 31 set round-trip through both redo formats. *)
let prop_rlvm_interleaving_equiv rng size =
  let mk ~codec ~coalesce_depth =
    let k = Kernel.create ~codec ~coalesce_depth () in
    let sp = Kernel.create_space k in
    Lvm_rvm.Rlvm.make Lvm_rvm.Rlvm.Config.default k sp ~size:256
  in
  let a = mk ~codec:Log_record.V1 ~coalesce_depth:(1 + Sm.int rng ~bound:24) in
  let b = mk ~codec:Log_record.V0 ~coalesce_depth:0 in
  let shadow = Array.make 64 0 in
  let txns = 1 + (size / 8) in
  for _ = 1 to txns do
    let writes =
      List.init
        (1 + Sm.int rng ~bound:12)
        (fun _ -> (Sm.int rng ~bound:64, any_word rng))
    in
    let outcome =
      match Sm.int rng ~bound:5 with 0 -> `Abort | 1 -> `Crash | _ -> `Commit
    in
    List.iter
      (fun r ->
        Lvm_rvm.Rlvm.begin_txn r;
        List.iter
          (fun (w, v) -> Lvm_rvm.Rlvm.write_word r ~off:(4 * w) v)
          writes;
        match outcome with
        | `Commit -> Lvm_rvm.Rlvm.commit r
        | `Abort -> Lvm_rvm.Rlvm.abort r
        | `Crash -> Lvm_rvm.Rlvm.crash_and_recover r)
      [ a; b ];
    if outcome = `Commit then
      List.iter (fun (w, v) -> shadow.(w) <- v) writes
  done;
  List.iter
    (fun r -> Lvm_rvm.Rlvm.crash_and_recover r)
    [ a; b ];
  for w = 0 to 63 do
    let va = Lvm_rvm.Rlvm.read_word a ~off:(4 * w)
    and vb = Lvm_rvm.Rlvm.read_word b ~off:(4 * w) in
    expect
      (va = shadow.(w) && vb = shadow.(w))
      "word %d: v1+coalesce %d, v0 %d, expected %d" w va vb shadow.(w)
  done;
  let ok = function
    | Ok v -> v
    | Error e -> failwith (Lvm.Lvm_error.to_string e)
  in
  let mk ~codec ~coalesce_depth =
    let k = Kernel.create ~codec ~coalesce_depth () in
    let sp = Kernel.create_space k in
    ok (Lvm_fams.map Lvm_fams.Config.default k sp ~size:256)
  in
  let a = mk ~codec:Log_record.V1 ~coalesce_depth:(1 + Sm.int rng ~bound:24) in
  let b = mk ~codec:Log_record.V0 ~coalesce_depth:0 in
  let shadow = Array.make 64 0 in
  for _ = 1 to txns do
    let writes =
      List.init
        (1 + Sm.int rng ~bound:12)
        (fun _ -> (Sm.int rng ~bound:64, any_word rng))
    in
    let snapshot = Sm.int rng ~bound:4 > 0 in
    List.iter
      (fun f ->
        List.iter
          (fun (w, v) -> ok (Lvm_fams.write_word f ~off:(4 * w) v))
          writes;
        if snapshot then ignore (ok (Lvm_fams.snapshot f))
        else ignore (ok (Lvm_fams.recover f)))
      [ a; b ];
    if snapshot then List.iter (fun (w, v) -> shadow.(w) <- v) writes
  done;
  List.iter (fun f -> ignore (ok (Lvm_fams.recover f))) [ a; b ];
  for w = 0 to 63 do
    let va = ok (Lvm_fams.read_word a ~off:(4 * w))
    and vb = ok (Lvm_fams.read_word b ~off:(4 * w)) in
    expect
      (va = shadow.(w) && vb = shadow.(w))
      "fams word %d: v1+coalesce %d, v0 %d, expected %d" w va vb shadow.(w)
  done

let suites =
  [
    ( "logdiet",
      [
        Alcotest.test_case "stream header + sniff" `Quick
          test_stream_header_and_sniff;
        Alcotest.test_case "coalescing absorbs rewrites" `Quick
          test_coalesce_absorbs_rewrites;
        Alcotest.test_case "runs form on flush" `Quick
          test_runs_form_on_flush;
        Alcotest.test_case "seal + rewrite v1 stream" `Quick
          test_seal_and_rewrite_v1;
        Alcotest.test_case "mixed-format WAL recovery" `Quick
          test_wal_mixed_formats_recover;
        Alcotest.test_case "rlvm encoded commit + recover" `Quick
          test_rlvm_v1_commit_and_recover;
        Alcotest.test_case "fams encoded snapshot + recover" `Quick
          test_fams_v1_snapshot_and_recover;
        Alcotest.test_case "fams recover drops the crashed epoch" `Quick
          test_fams_recover_logs_nothing;
      ] );
    ( "logdiet.prop",
      [
        prop "codec round-trip + torn tail" ~max_size:24
          ~cases:(min cases 300) prop_codec_roundtrip;
        prop "coalesced replay identity" ~max_size:96 ~cases:(min cases 80)
          prop_coalesced_replay_identity;
        prop "rlvm interleaving equivalence" ~max_size:48
          ~cases:(min cases 40) prop_rlvm_interleaving_equiv;
      ] );
  ]
