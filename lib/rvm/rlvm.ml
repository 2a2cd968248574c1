open Lvm_machine
open Lvm_vm

module Config = Durable.Config

type t = {
  d : Durable.t; (* the txn cell lives at [d.size] *)
  mutable current : int option;
  mutable next_txn : int;
  mutable txn_absorbed_base : int;
      (* [Segment.absorbed_crossings ls] at [begin_txn]: if it grows, part
         of the transaction's redo information was absorbed (lost), even
         when a later [extend_log] resumed logging. *)
}

let cell_addr t = t.d.base + t.d.size

let make config k space ~size =
  { d = Durable.map ~op:"Rlvm.create" ~txn_cell:true config k space ~size;
    current = None; next_txn = 1; txn_absorbed_base = 0 }

let kernel t = t.d.k
let base t = t.d.base
let size t = t.d.size
let disk t = t.d.disk
let log_segment t = t.d.ls
let log t = t.d.log
let in_txn t = t.current <> None
let last_txn_id t = t.next_txn - 1
let group t = Lvm_log.Batcher.group t.d.batcher
let pending_commits t = Lvm_log.Batcher.pending t.d.batcher
let flush_commits t = Lvm_log.Batcher.flush t.d.batcher

(* The open transaction's id, or a typed [Invalid] naming [op]. *)
let current t ~op =
  match t.current with
  | Some id -> id
  | None -> Error.raise_ (Error.Invalid { op; reason = "no open transaction" })

let begin_txn t =
  if t.current <> None then
    Error.raise_
      (Error.Invalid
         { op = "Rlvm.begin_txn"; reason = "a transaction is already open" });
  let id = t.next_txn in
  t.next_txn <- id + 1;
  t.current <- Some id;
  Durable.reserve t.d;
  t.txn_absorbed_base <- Segment.absorbed_crossings t.d.ls;
  (* the special logged location marking the transaction (Section 2.5) *)
  Kernel.write_word t.d.k t.d.space (cell_addr t) id

let read_word t ~off = Durable.read_word t.d ~off

let write_word t ~off v =
  ignore (current t ~op:"Rlvm.write_word");
  Durable.check_off t.d off;
  Durable.reserve t.d;
  Kernel.compute t.d.k Rvm_costs.rlvm_write_overhead;
  Kernel.write_word t.d.k t.d.space (t.d.base + off) v

(* The redo of one logged write at [off] of the working segment: the
   transaction cell at [d.size] and writes elsewhere carry none. *)
let redo (d : Durable.t) ~off ~size ~value =
  if off >= 0 && off < d.size then Durable.write_redo_value d ~off ~size ~value

let commit ?(pace = fun () -> ()) t =
  let id = current t ~op:"Rlvm.commit" in
  let d = t.d in
  (* If the logger fell back to absorbing records into the default log
     page, part of this transaction's redo information is already lost:
     committing would write an incomplete transaction to the WAL. This
     holds even if a later [extend_log] resumed logging: any absorbed
     crossing during the transaction is unrecoverable loss. *)
  Kernel.sync_log d.k d.ls;
  if Segment.absorbing d.ls
     || Segment.absorbed_crossings d.ls > t.txn_absorbed_base
  then
    Error.raise_
      (Error.Log_exhausted
         { segment = Segment.id d.ls; pos = Segment.write_pos d.ls;
           capacity = Segment.size d.ls });
  (* Build redo records for the write-ahead log straight from the LVM
     log — the records are already there; no set_range bookkeeping. One
     [pace] per record scanned. *)
  Durable.open_redo d ~txn:id;
  (match Lvm_log.stream_version d.k d.ls with
  | Log_record.V0 ->
    (* The flags, address and value words read raw: no record is built. *)
    let mem = Machine.mem (Kernel.machine d.k) in
    ignore
      (Lvm.Log_reader.walk_v0 d.k d.ls ~f:(fun ~off:_ ~paddr ->
           pace ();
           let flags =
             Physmem.read_word_raw mem (paddr + Log_record.flags_offset)
           in
           if not (Log_record.flags_pre_image flags) then
             redo d
               ~off:
                 (Lvm.Log_reader.seg_offset d.k ~seg:d.working
                    ~addr:(Physmem.read_word_raw mem paddr))
               ~size:(Log_record.flags_size flags)
               ~value:
                 (Physmem.read_word_raw mem (paddr + Log_record.value_offset));
           true))
  | Log_record.V1 ->
    Lvm.Log_reader.iter d.k d.ls ~f:(fun ~off:_ r ->
        pace ();
        redo d ~off:(Lvm.Log_reader.located d.k ~seg:d.working r)
          ~size:r.Log_record.size ~value:r.Log_record.value));
  (* group commit: force once per batch (group 1 forces right here) *)
  Durable.finish_redo d (Ramdisk.Commit { txn = id });
  (* The force is a large pure-compute charge; yield before the CULT's
     timed accesses so a concurrent scheduler can keep event order. *)
  pace ();
  (* Fold the transaction into the committed image and truncate the log. *)
  ignore
    (Lvm.Checkpoint.cult_all d.k ~working:d.working ~checkpoint:d.committed
       ~log:d.ls);
  t.current <- None;
  Kernel.write_word d.k d.space (cell_addr t) 0;
  Durable.truncate_if_forced d

let abort t =
  ignore (current t ~op:"Rlvm.abort");
  let d = t.d in
  Durable.rewind d ~restore:(fun () ->
      Kernel.reset_deferred_copy d.k d.space ~start:d.base
        ~len:(Region.size d.region));
  t.current <- None;
  Kernel.write_word d.k d.space (cell_addr t) 0

let recover t =
  t.current <- None;
  Durable.recover t.d

let crash_and_recover t = ignore (recover t)
