open Lvm_machine
open Lvm_vm

type kernel = Kernel.t
type segment = Segment.t

let apply_record k ~target ~off (r : Log_record.t) =
  let paddr = Kernel.paddr_of k target ~off in
  Machine.write (Kernel.machine k) ~paddr ~size:r.Log_record.size
    ~mode:Machine.Write_back ~logged:false r.Log_record.value

let roll_forward k ~log ~from ~apply =
  match Lvm_log.stream_version k log with
  | Log_record.V0 ->
    let m = Kernel.machine k in
    Log_reader.walk_v0 ~start:from k log ~f:(fun ~off ~paddr ->
        match apply ~off (Log_reader.read_v0_timed m ~paddr) with
        | `Continue -> true
        | `Stop -> false)
  | Log_record.V1 ->
    (* Containers are the only valid stop offsets of an encoded stream
       (truncating inside one would tear it, and a record after a dead
       delta's predecessor must never survive alone), so the walk applies
       container by container: the reader charges one pass over the
       container's bytes, then every logical record is offered to
       [apply]. A [`Stop] anywhere in a container stops at the
       container's start — replay is idempotent (records carry absolute
       values), so records of a partially-applied container are simply
       replayed next time. *)
    let exception Stop of int in
    (try
       let stop =
         Log_reader.fold_phys k log ~init:(max from 0)
           ~f:(fun acc ~off ~next rs ->
             if next <= from then acc
             else begin
               Log_reader.charge_read k log ~off ~len:(next - off);
               List.iter
                 (fun r ->
                   match apply ~off r with
                   | `Continue -> ()
                   | `Stop -> raise (Stop off))
                 rs;
               next
             end)
       in
       stop
     with Stop off -> off)

let rollback k ~space ~working ~working_region ~base ~log ~upto =
  (* Re-applied updates must not be re-logged (logging is dynamically
     switchable per region, Section 2.7). *)
  Kernel.set_logging_enabled k working_region false;
  Kernel.reset_deferred_copy k space ~start:base
    ~len:(Region.size working_region);
  let stop =
    roll_forward k ~log ~from:0 ~apply:(fun ~off:_ r ->
        if r.Log_record.pre_image then `Continue
        else
          let at = Log_reader.locate k r in
          if not (upto r at) then `Stop
          else
            match at with
            | Some (seg, off) when Segment.id seg = Segment.id working ->
              apply_record k ~target:working ~off r;
              `Continue
            | Some _ | None -> `Continue)
  in
  Lvm_log.truncate_suffix (Lvm_log.of_segment k log) ~new_end:stop;
  Kernel.set_logging_enabled k working_region true

let cult k ~working ~checkpoint ~log ~upto =
  let applied = ref 0 in
  let stop =
    roll_forward k ~log ~from:0 ~apply:(fun ~off:_ r ->
        if r.Log_record.pre_image then `Continue
        else
          let at = Log_reader.locate k r in
          if not (upto r at) then `Stop
          else begin
            (match at with
            | Some (seg, off) when Segment.id seg = Segment.id working ->
              apply_record k ~target:checkpoint ~off r;
              incr applied
            | Some _ | None -> ());
            `Continue
          end)
  in
  (* checkpoint-driven compaction: CULT'd records are dead, so the
     extents below [stop] are truncatable and get recycled *)
  Lvm_log.truncate (Lvm_log.of_segment k log) ~keep_from:stop;
  !applied

let cult_all k ~working ~checkpoint ~log =
  cult k ~working ~checkpoint ~log ~upto:(fun _ _ -> true)
