open Lvm_machine
open Lvm_vm

exception No_transaction
exception Transaction_open

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

let begin_txn t =
  if t.current <> None then raise Transaction_open;
  let id = t.next_txn in
  t.next_txn <- id + 1;
  t.current <- Some id;
  Durable.reserve t.d;
  t.txn_absorbed_base <- Segment.absorbed_crossings t.d.ls;
  (* the special logged location marking the transaction (Section 2.5) *)
  Kernel.write_word t.d.k t.d.space (cell_addr t) id

let read_word t ~off = Durable.read_word t.d ~off

let write_word t ~off v =
  if t.current = None then raise No_transaction;
  Durable.check_off t.d off;
  Durable.reserve t.d;
  Kernel.compute t.d.k Rvm_costs.rlvm_write_overhead;
  Kernel.write_word t.d.k t.d.space (t.d.base + off) v

let commit ?(pace = fun () -> ()) t =
  let id = match t.current with None -> raise No_transaction | Some i -> i in
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
     log — the records are already there; no set_range bookkeeping. *)
  Durable.open_redo d ~txn:id;
  Lvm.Log_reader.iter d.k d.ls ~f:(fun ~off:_ r ->
      pace ();
      let off = Lvm.Log_reader.located d.k ~seg:d.working r in
      if off >= 0 && off < d.size then
        Durable.write_redo d ~off (Log_record.value_bytes r));
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
  if t.current = None then raise No_transaction;
  let { Durable.k; region; ls; _ } = t.d in
  (* Writes of the aborted transaction may still sit in the logger's
     coalescing buffer; drop them so they cannot flush into the fresh
     log later. *)
  Logger.discard_coalesced (Machine.logger (Kernel.machine k));
  Kernel.set_logging_enabled k region false;
  Kernel.reset_deferred_copy k t.d.space ~start:t.d.base
    ~len:(Region.size region);
  (if Segment.absorbing ls then Segment.set_absorbing ls false);
  Lvm_log.truncate_suffix t.d.log ~new_end:0;
  Kernel.set_logging_enabled k region true;
  t.current <- None;
  Kernel.write_word k t.d.space (cell_addr t) 0

let recover t =
  t.current <- None;
  Durable.recover t.d

let crash_and_recover t = ignore (recover t)
