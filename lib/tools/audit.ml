open Lvm_vm

type snapshot = {
  seg : Segment.t;
  image : Bytes.t; (* contents at snapshot time *)
  log_start : int; (* log record byte offset at snapshot time *)
}

let read_seg_byte k seg off = Kernel.seg_read_raw k seg ~off ~size:1

let snapshot k seg =
  let n = Segment.size seg in
  { seg;
    image = Bytes.init n (fun off -> Char.chr (read_seg_byte k seg off));
    log_start = 0 }

(* Replay every logged write since the snapshot onto a copy of the
   snapshot image; any word where the replayed image disagrees with the
   segment's current contents was modified by an unlogged write. *)
let unlogged_changes k ~log snap =
  let replayed = Bytes.copy snap.image in
  Lvm.Log_reader.iter_in k log ~seg:snap.seg ~f:(fun ~rec_off ~off r ->
      if rec_off >= snap.log_start then
        let v = r.Lvm_machine.Log_record.value in
        match r.Lvm_machine.Log_record.size with
        | 1 -> Bytes.set replayed off (Char.chr (v land 0xFF))
        | 2 -> Bytes.set_uint16_le replayed off (v land 0xFFFF)
        | _ -> Bytes.set_int32_le replayed off (Int32.of_int v));
  let bad = ref [] in
  let words = Bytes.length snap.image / 4 in
  for w = words - 1 downto 0 do
    let off = w * 4 in
    let current = Kernel.seg_read_raw k snap.seg ~off ~size:4 in
    let expected =
      Int32.to_int (Bytes.get_int32_le replayed off) land 0xFFFFFFFF
    in
    if current <> expected then bad := off :: !bad
  done;
  !bad

let verify k ~log snap = unlogged_changes k ~log snap = []
