open Lvm_vm

exception Unannotated_write of { off : int }

type range = { r_off : int; r_len : int; old : Bytes.t }
type txn = { id : int; mutable ranges : range list (* newest first *) }

type t = {
  k : Kernel.t;
  space : Address_space.t;
  seg : Segment.t;
  base : int;
  size : int;
  disk : Ramdisk.t;
  strict : bool;
  mutable current : txn option;
  mutable next_txn : int;
}

module Config = struct
  type t = { strict : bool }

  let default = { strict = true }
end

let make (config : Config.t) k space ~size =
  let seg = Kernel.create_segment k ~size in
  let region = Kernel.create_region k seg in
  let base = Kernel.bind k space region in
  { k; space; seg; base; size; disk = Ramdisk.create k ~size;
    strict = config.Config.strict; current = None; next_txn = 1 }

let kernel t = t.k
let base t = t.base
let size t = t.size
let disk t = t.disk
let in_txn t = t.current <> None

let begin_txn t =
  if t.current <> None then
    Error.raise_
      (Error.Invalid
         { op = "Rvm.begin_txn"; reason = "a transaction is already open" });
  let txn = { id = t.next_txn; ranges = [] } in
  t.next_txn <- t.next_txn + 1;
  t.current <- Some txn

let current t ~op =
  match t.current with
  | Some x -> x
  | None -> Error.raise_ (Error.Invalid { op; reason = "no open transaction" })

let words len = (len + 3) / 4

let seg_bytes t ~off ~len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (Kernel.seg_read_raw t.k t.seg ~off:(off + i)
                               ~size:1))
  done;
  b

let set_range t ~off ~len =
  let txn = current t ~op:"Rvm.set_range" in
  if off < 0 || len < 0 || off + len > t.size then
    Error.raise_ (Error.Out_of_segment { segment = Segment.id t.seg; off });
  (* Bookkeeping, the old-value save and the redo-record skeleton. *)
  Kernel.compute t.k
    (Rvm_costs.set_range_overhead + Rvm_costs.redo_record_overhead
     + (words len * Rvm_costs.undo_copy_per_word));
  txn.ranges <- { r_off = off; r_len = len; old = seg_bytes t ~off ~len }
                :: txn.ranges

let covered txn ~off ~size =
  List.exists
    (fun r -> off >= r.r_off && off + size <= r.r_off + r.r_len)
    txn.ranges

let read_word t ~off = Kernel.read_word t.k t.space (t.base + off)

let write_word t ~off v =
  let txn = current t ~op:"Rvm.write_word" in
  if t.strict && not (covered txn ~off ~size:4) then
    raise (Unannotated_write { off });
  Kernel.compute t.k Rvm_costs.rvm_write_overhead;
  Kernel.write_word t.k t.space (t.base + off) v

let commit t =
  let txn = current t ~op:"Rvm.commit" in
  (* Capture new values of every declared range into redo records and
     force them, oldest range first. *)
  List.iter
    (fun r ->
      Kernel.compute t.k
        (Rvm_costs.rvm_commit_per_range
         + (words r.r_len * Rvm_costs.redo_copy_per_word));
      Ramdisk.wal_append t.disk
        (Ramdisk.Data
           { txn = txn.id; off = r.r_off; bytes = seg_bytes t ~off:r.r_off
                                            ~len:r.r_len }))
    (List.rev txn.ranges);
  Ramdisk.wal_append t.disk (Ramdisk.Commit { txn = txn.id });
  Ramdisk.wal_force t.disk;
  t.current <- None;
  if Ramdisk.should_truncate t.disk then Ramdisk.truncate t.disk

let abort t =
  let txn = current t ~op:"Rvm.abort" in
  (* Restore saved old values, newest range first so overlapping ranges
     unwind correctly. *)
  List.iter
    (fun r ->
      Kernel.compute t.k (words r.r_len * Rvm_costs.undo_copy_per_word);
      Bytes.iteri
        (fun i c ->
          Kernel.seg_write_raw t.k t.seg ~off:(r.r_off + i) ~size:1
            (Char.code c))
        r.old)
    txn.ranges;
  t.current <- None

let crash_and_recover t =
  t.current <- None;
  let image = Ramdisk.recovered_image t.disk in
  for off = 0 to t.size - 1 do
    Kernel.seg_write_raw t.k t.seg ~off ~size:1 (Char.code (Bytes.get image off))
  done
