open Lvm_machine
open Lvm_vm

type kernel = Kernel.t
type segment = Segment.t

let replay k ~log ~from ~seg ~f =
  match Lvm_log.stream_version k log with
  | Log_record.V0 ->
    (* Four timed word reads per record, then three of its words read
       untimed from memory: no record is built. *)
    let m = Kernel.machine k in
    let mem = Machine.mem m in
    let words = Log_record.bytes / Addr.word_size in
    Log_reader.walk_v0 ~start:from k log ~f:(fun ~off:_ ~paddr ->
        Machine.charge_read m ~paddr ~words;
        let flags =
          Physmem.read_word_raw mem (paddr + Log_record.flags_offset)
        in
        Log_record.flags_pre_image flags
        || Log_reader.offer k ~seg ~f ~addr:(Physmem.read_word_raw mem paddr)
             ~size:(Log_record.flags_size flags)
             ~value:
               (Physmem.read_word_raw mem (paddr + Log_record.value_offset)))
  | Log_record.V1 ->
    (* Containers are the only valid stop offsets of an encoded stream
       (truncating inside one would tear it, and a record after a dead
       delta's predecessor must never survive alone), so the walk goes
       container by container: one charged pass over the container's
       bytes, then every logical record is offered. A stop anywhere in a
       container stops at the container's start — replay is idempotent
       (records carry absolute values), so records of a partially-applied
       container are simply replayed next time. *)
    let exception Stop of int in
    (try
       Log_reader.fold_phys k log ~init:(max from 0)
         ~f:(fun acc ~off ~next rs ->
           if next <= from then acc
           else begin
             Log_reader.charge_read k log ~off ~len:(next - off);
             List.iter
               (fun (r : Log_record.t) ->
                 if not
                      (r.Log_record.pre_image
                      || Log_reader.offer k ~seg ~f ~addr:r.Log_record.addr
                           ~size:r.Log_record.size ~value:r.Log_record.value)
                 then raise (Stop off))
               rs;
             next
           end)
     with Stop off -> off)

let write m ~paddr ~size ~value =
  Machine.write m ~paddr ~size ~mode:Machine.Write_back ~logged:false value

let rollback k ~space ~working ~working_region ~base ~log ~upto =
  (* Re-applied updates must not be re-logged (logging is dynamically
     switchable per region, Section 2.7). *)
  Kernel.set_logging_enabled k working_region false;
  Kernel.reset_deferred_copy k space ~start:base
    ~len:(Region.size working_region);
  let m = Kernel.machine k in
  let stop =
    replay k ~log ~from:0 ~seg:working ~f:(fun ~off ~paddr ~size ~value ->
        upto off value
        && begin
          write m ~paddr ~size ~value;
          true
        end)
  in
  Lvm_log.truncate_suffix (Lvm_log.of_segment k log) ~new_end:stop;
  Kernel.set_logging_enabled k working_region true

let cult k ~working ~checkpoint ~log ~upto =
  let m = Kernel.machine k in
  let applied = ref 0 in
  let stop =
    replay k ~log ~from:0 ~seg:working ~f:(fun ~off ~paddr:_ ~size ~value ->
        upto off value
        && begin
          write m ~paddr:(Kernel.paddr_of k checkpoint ~off) ~size ~value;
          incr applied;
          true
        end)
  in
  (* checkpoint-driven compaction: CULT'd records are dead, so the
     extents below [stop] are truncatable and get recycled *)
  Lvm_log.truncate (Lvm_log.of_segment k log) ~keep_from:stop;
  !applied

let cult_all k ~working ~checkpoint ~log =
  cult k ~working ~checkpoint ~log ~upto:(fun _ _ -> true)
