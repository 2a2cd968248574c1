open Lvm_machine
open Lvm_vm

type kernel = Kernel.t
type segment = Segment.t

let length k ls =
  Kernel.sync_log k ls;
  Segment.write_pos ls

(* Fold over physical records — the stream's containers. Under V0 every
   container is one bare record; under V1 a container may carry a run of
   records (or none: version headers and pads). [next] is the offset just
   past the container. *)
let fold_phys k ls ~init ~f =
  match Lvm_log.stream_version k ls with
  | Log_record.V1 ->
    (* Records are variable-length and deltas need look-behind, so the
       stream is parsed as one contiguous copy. *)
    let buf = Lvm_log.snapshot_bytes k ls ~len:(length k ls) in
    let acc = ref init in
    ignore
      (Log_record.Codec.scan buf ~pos:0 ~len:(Bytes.length buf)
         ~f:(fun ~off ~next rs -> acc := f !acc ~off ~next rs));
    !acc
  | Log_record.V0 ->
    let mem = Machine.mem (Kernel.machine k) in
    let len = length k ls in
    let rec go acc off =
      if off + Log_record.bytes > len then acc
      else
        let paddr = Kernel.paddr_of k ls ~off in
        let r = Log_record.decode_from mem ~paddr in
        go (f acc ~off ~next:(off + Log_record.bytes) [ r ]) (off + Log_record.bytes)
    in
    go init 0

let record_count k ls =
  match Lvm_log.stream_version k ls with
  | Log_record.V0 -> length k ls / Log_record.bytes
  | Log_record.V1 ->
    fold_phys k ls ~init:0 ~f:(fun n ~off:_ ~next:_ rs -> n + List.length rs)

let read_at k ls ~off =
  match Lvm_log.stream_version k ls with
  | Log_record.V0 ->
    let paddr = Kernel.paddr_of k ls ~off in
    Log_record.decode_from (Machine.mem (Kernel.machine k)) ~paddr
  | Log_record.V1 -> (
    match
      fold_phys k ls ~init:None ~f:(fun acc ~off:o ~next:_ rs ->
          match acc with
          | Some _ -> acc
          | None -> if o = off then (match rs with r :: _ -> Some r | [] -> None)
            else None)
    with
    | Some r -> r
    | None -> invalid_arg "Log_reader.read_at: no record at offset")

(* Charge the cache-model cost of reading [len] stream bytes at [off]. *)
let charge_read k ls ~off ~len =
  let m = Kernel.machine k in
  for w = 0 to ((len + Addr.word_size - 1) / Addr.word_size) - 1 do
    Machine.charge_read m
      ~paddr:(Kernel.paddr_of k ls ~off:(off + (w * Addr.word_size)))
      ~words:1
  done

let map k space ls =
  if Segment.kind ls <> Segment.Log then
    invalid_arg "Log_reader.map: not a log segment";
  let region = Kernel.create_region k ls in
  Kernel.bind k space region

let read_mapped k space ~base ~off =
  let word i = Kernel.read_word k space (base + off + (i * Addr.word_size)) in
  let buf = Bytes.create Log_record.bytes in
  for i = 0 to 3 do
    Bytes.set_int32_le buf (i * 4) (Int32.of_int (word i))
  done;
  Log_record.decode_bytes buf ~pos:0

let walk_v0 ?(start = 0) k ls ~f =
  (* One logger sync for the whole walk ([length]), one address
     translation per page: records never straddle pages (the page size is
     a multiple of [Log_record.bytes]), so a cached page base serves all
     the records on it — including across extent boundaries, which are
     ordinary page boundaries of the backing segment. If [f] truncates or
     compacts the log mid-walk ([Kernel.rearm_log] bumps the segment
     generation), both the cached translation and the captured length are
     stale: records may have been bcopied to other pages and the tail
     recycled. On a generation change the walk re-reads [write_pos]
     (clamping the remaining span) and drops the page cache, so it never
     reads through a recycled extent's old mapping. *)
  let len = ref (length k ls) in
  let generation = ref (Segment.generation ls) in
  let page_start = ref (-1) (* log offset of the cached page; -1: none *) in
  let page_paddr = ref 0 in
  let rec go off =
    if Segment.generation ls <> !generation then begin
      generation := Segment.generation ls;
      page_start := -1;
      len := min !len (Segment.write_pos ls)
    end;
    if off + Log_record.bytes > !len then off
    else begin
      if !page_start < 0 || off - !page_start >= Addr.page_size then begin
        page_start := off - Addr.page_offset off;
        page_paddr := Kernel.paddr_of k ls ~off:!page_start
      end;
      if f ~off ~paddr:(!page_paddr + (off - !page_start)) then
        go (off + Log_record.bytes)
      else off
    end
  in
  go start

let fold_v0 ?start k ls ~init ~f =
  let mem = Machine.mem (Kernel.machine k) in
  let acc = ref init in
  ignore
    (walk_v0 ?start k ls ~f:(fun ~off ~paddr ->
         acc := f !acc ~off (Log_record.decode_from mem ~paddr);
         true));
  !acc

let fold k ls ~init ~f =
  match Lvm_log.stream_version k ls with
  | Log_record.V0 -> fold_v0 k ls ~init ~f
  | Log_record.V1 ->
    (* Logical records decoded from the stream snapshot; [off] is the
       containing physical record's offset. Mid-fold truncation is safe
       (the snapshot was captured first) but not observed. *)
    fold_phys k ls ~init ~f:(fun acc ~off ~next:_ rs ->
        List.fold_left (fun acc r -> f acc ~off r) acc rs)

let iter k ls ~f = fold k ls ~init:() ~f:(fun () ~off r -> f ~off r)

let to_list k ls =
  List.rev (fold k ls ~init:[] ~f:(fun acc ~off:_ r -> r :: acc))

(* The frame map's stored entry, checked in place: no (segment, offset)
   pair is built per record. *)
let frame_offset k ~seg ~paddr =
  match Kernel.owner_of_frame k ~frame:(Addr.page_number paddr) with
  | Some (s, page) when Segment.id s = Segment.id seg ->
    (page * Addr.page_size) + Addr.page_offset paddr
  | Some _ | None -> -1

(* On-chip records carry virtual addresses (Section 4.6). *)
let mapping_offset k ~seg ~vaddr =
  match Kernel.find_mapping k ~vaddr with
  | Some (s, off) when Segment.id s = Segment.id seg -> off
  | Some _ | None -> -1

let physical_addresses k =
  match Logger.hw (Machine.logger (Kernel.machine k)) with
  | Logger.Prototype -> true
  | Logger.On_chip -> false

let seg_offset k ~seg ~addr =
  if physical_addresses k then frame_offset k ~seg ~paddr:addr
  else mapping_offset k ~seg ~vaddr:addr

(* A prototype record's address is the physical address it wrote (the
   frame map placed that frame in [seg]); an on-chip one is translated. *)
let offer k ~seg ~addr ~size ~value ~f =
  if physical_addresses k then
    let off = frame_offset k ~seg ~paddr:addr in
    off < 0 || f ~off ~paddr:addr ~size ~value
  else
    let off = mapping_offset k ~seg ~vaddr:addr in
    off < 0 || f ~off ~paddr:(Kernel.paddr_of k seg ~off) ~size ~value

let located k ~seg (r : Log_record.t) =
  if r.Log_record.pre_image then -1
  else seg_offset k ~seg ~addr:r.Log_record.addr

let fold_in k ls ~seg ~init ~f =
  fold k ls ~init ~f:(fun acc ~off:rec_off r ->
      let off = located k ~seg r in
      if off < 0 then acc else f acc ~rec_off ~off r)

let iter_in k ls ~seg ~f =
  fold_in k ls ~seg ~init:() ~f:(fun () ~rec_off ~off r -> f ~rec_off ~off r)

let vaddr_in ~base ~region seg off =
  if Segment.id (Region.segment region) <> Segment.id seg then None
  else
    let rel = off - Region.seg_offset region in
    if rel < 0 || rel >= Region.size region then None else Some (base + rel)
