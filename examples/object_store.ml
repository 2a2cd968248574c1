(* A memory-mapped persistent object store (the paper's Section 1 OODB
   motivation): "Object-oriented database management systems can use
   logged virtual memory to log updates to the objects mapped into a
   virtual memory region. The resulting redo log in combination with
   checkpointing can be used to implement transaction atomicity and
   recoverability efficiently."

   The database file is a demand-paged backed segment mapped into the
   address space; object updates are ordinary stores, logged by hardware;
   a checkpointer applies the redo log to the file image. After a crash,
   remapping the file in a fresh kernel shows exactly the checkpointed
   updates. Run with:

     dune exec examples/object_store.exe *)

open Lvm_vm

let db_size = 8 * Lvm_machine.Addr.page_size

(* the durable "database file" *)
let db_file = Backing_store.create ~size:db_size

let open_db k sp =
  let seg = Kernel.create_segment ~backing:db_file k ~size:db_size in
  let region = Kernel.create_region k seg in
  let ls =
    Kernel.create_log_segment k ~size:(16 * Lvm_machine.Addr.page_size)
  in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  (seg, ls, base)

(* Checkpoint: apply the redo log to the file image (only the words that
   changed cross to the "disk"), then truncate it. *)
let checkpoint k seg ls =
  let applied = ref 0 in
  Lvm.Log_reader.iter_in k ls ~seg ~f:(fun ~rec_off:_ ~off r ->
      Backing_store.write_word db_file ~off r.Lvm_machine.Log_record.value;
      incr applied);
  Lvm_log.truncate (Lvm_log.of_segment k ls)
    ~keep_from:(Lvm.Log_reader.length k ls);
  !applied

let () =
  (* session 1: populate some objects and checkpoint *)
  let () =
    let k = Kernel.create () in
    let sp = Kernel.create_space k in
    let seg, ls, base = open_db k sp in
    Printf.printf "session 1: database mapped at 0x%x\n" base;
    for obj = 0 to 9 do
      Kernel.write_word k sp (base + (obj * 64)) (1000 + obj)
    done;
    let n = checkpoint k seg ls in
    Printf.printf "checkpointed %d logged updates into the file image\n" n;
    (* post-checkpoint updates that will be lost in the crash *)
    Kernel.write_word k sp base 666;
    Printf.printf "one more update (not checkpointed)... then the machine \
                   dies\n"
  in
  (* session 2: a fresh kernel maps the same file *)
  let k = Kernel.create () in
  let sp = Kernel.create_space k in
  let _seg, _ls, base = open_db k sp in
  Printf.printf "session 2: remapped the database file\n";
  Printf.printf "object 0 = %d (checkpointed value, not the lost 666)\n"
    (Kernel.read_word k sp base);
  Printf.printf "object 9 = %d\n" (Kernel.read_word k sp (base + (9 * 64)));
  assert (Kernel.read_word k sp base = 1000);
  assert (Kernel.read_word k sp (base + (9 * 64)) = 1009);
  (* demand paging at work: only touched pages were faulted in *)
  Printf.printf "page faults so far in session 2: %d (of %d file pages)\n"
    (Kernel.perf k).Lvm_machine.Perf.page_faults
    (db_size / Lvm_machine.Addr.page_size)
