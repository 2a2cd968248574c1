type hit = {
  record_index : int;
  off : int;
  value : int;
  size : int;
  timestamp : int;
}

let overlaps ~off ~len ~roff ~rsize = roff < off + len && off < roff + rsize

let hits k ~log ~watched ~off ~len =
  let acc =
    Lvm.Log_reader.fold_in k log ~seg:watched ~init:[]
      ~f:(fun acc ~rec_off ~off:roff r ->
        if overlaps ~off ~len ~roff ~rsize:r.Lvm_machine.Log_record.size then
          {
            record_index = rec_off / Lvm_machine.Log_record.bytes;
            off = roff;
            value = r.Lvm_machine.Log_record.value;
            size = r.Lvm_machine.Log_record.size;
            timestamp = r.Lvm_machine.Log_record.timestamp;
          }
          :: acc
        else acc)
  in
  List.rev acc

let last_writer k ~log ~watched ~off =
  match List.rev (hits k ~log ~watched ~off ~len:4) with
  | [] -> None
  | h :: _ -> Some h

let first_corruption k ~log ~watched ~off ~expected =
  List.find_opt
    (fun h -> h.off = off && h.value <> expected)
    (hits k ~log ~watched ~off ~len:4)
