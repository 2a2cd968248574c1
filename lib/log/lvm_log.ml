open Lvm_machine
open Lvm_vm

type extent_state = Active | Sealed | Recycled

type stats = {
  extents : int;
  extent_pages : int;
  active : int;
  sealed : int;
  recycled : int;
  capacity : int;
  write_pos : int;
  utilization_pct : int;
  truncation_lag : int;
  switches : int;
  reuses : int;
  recycled_total : int;
}

type t = {
  k : Kernel.t;
  seg : Segment.t;
  extent_pages : int;
  mutable high_water : int; (* highest extent index ever entered *)
  mutable switches : int;
  mutable reuses : int;
  mutable recycled_total : int;
  c_extends : Lvm_obs.Counter.counter;
  c_switches : Lvm_obs.Counter.counter;
  c_reuses : Lvm_obs.Counter.counter;
  c_recycled : Lvm_obs.Counter.counter;
  g_extents : Lvm_obs.Counter.counter;
  g_util : Lvm_obs.Counter.counter;
  g_lag : Lvm_obs.Counter.counter;
}

let segment t = t.seg
let kernel t = t.k
let extent_bytes t = t.extent_pages * Addr.page_size

let extent_count t =
  (Segment.size t.seg + extent_bytes t - 1) / extent_bytes t

let event t ev = Lvm_obs.Ctx.event (Kernel.obs t.k) ~at:(Kernel.time t.k) ev

(* Gauges are plain counters driven with [set]; all cycle-free. *)
let refresh_gauges t =
  let capacity = Segment.size t.seg in
  let pos = Segment.write_pos t.seg in
  Lvm_obs.Counter.set t.g_extents (extent_count t);
  Lvm_obs.Counter.set t.g_util
    (if capacity = 0 then 0 else pos * 100 / capacity);
  Lvm_obs.Counter.set t.g_lag (pos / extent_bytes t * extent_bytes t)

(* {1 The per-kernel registry and the crossing observer} *)

(* An extent switch is a page crossing that lands on the first page of
   the next extent; it rides the kernel's [Log_addr_invalid] fault path,
   which re-points the logger's log-table entry and then notifies us. *)
let note_crossing t ~next_page ~absorbed =
  if (not absorbed) && next_page mod t.extent_pages = 0 then begin
    let ext = next_page / t.extent_pages in
    t.switches <- t.switches + 1;
    Lvm_obs.Counter.incr t.c_switches;
    if ext <= t.high_water then begin
      (* ring wrapped into capacity it had already claimed once: the
         steady state where logging stops allocating *)
      t.reuses <- t.reuses + 1;
      Lvm_obs.Counter.incr t.c_reuses
    end
    else t.high_water <- ext;
    refresh_gauges t
  end

type registry = { logs : t Int_table.t } (* keyed by segment id *)
type Kernel.ext += Registry of registry

let registry k =
  match Kernel.log_ext k with
  | Some (Registry r) -> r
  | Some _ | None ->
    let r = { logs = Int_table.create 8 } in
    Kernel.set_log_ext k (Some (Registry r));
    Kernel.set_log_crossing_observer k
      (Some
         (fun seg ~next_page ~absorbed ->
           match Int_table.find_opt r.logs (Segment.id seg) with
           | None -> ()
           | Some t -> note_crossing t ~next_page ~absorbed));
    r

let attach ?(extent_pages = 4) k seg =
  if extent_pages < 1 then
    Error.raise_
      (Error.Out_of_range
         { op = "Lvm_log.of_segment"; what = "extent_pages";
           value = extent_pages });
  let r = registry k in
  (* [find], not [find_opt]: every CULT attaches its log *)
  match Int_table.find r.logs (Segment.id seg) with
  | t -> t
  | exception Not_found ->
    let ctx = Kernel.obs k in
    let gauge fmt_name =
      Lvm_obs.Ctx.counter ctx
        (Printf.sprintf "log.%d.%s" (Segment.id seg) fmt_name)
    in
    let t =
      {
        k;
        seg;
        extent_pages;
        high_water = Segment.write_pos seg / (extent_pages * Addr.page_size);
        switches = 0;
        reuses = 0;
        recycled_total = 0;
        c_extends = Lvm_obs.Ctx.counter ctx "kernel.log_extends";
        c_switches = Lvm_obs.Ctx.counter ctx "log.extent_switches";
        c_reuses = Lvm_obs.Ctx.counter ctx "log.extent_reuses";
        c_recycled = Lvm_obs.Ctx.counter ctx "log.extents_recycled";
        g_extents = gauge "extents";
        g_util = gauge "utilization_pct";
        g_lag = gauge "truncation_lag";
      }
    in
    Int_table.replace r.logs (Segment.id seg) t;
    refresh_gauges t;
    t

let of_segment ?extent_pages k seg =
  if Segment.kind seg <> Segment.Log then
    Error.raise_
      (Error.Not_a_log_segment
         { op = "Lvm_log.of_segment"; segment = Segment.id seg });
  attach ?extent_pages k seg

let create ?mode ?extent_pages k ~size =
  attach ?extent_pages k (Kernel.create_log_segment ?mode k ~size)

(* {1 State derivation} *)

let extent_state t i =
  if i < 0 || i >= extent_count t then
    invalid_arg "Lvm_log.extent_state: bad extent index";
  let active_ext = Segment.write_pos t.seg / extent_bytes t in
  if i = active_ext then Active
  else if i > active_ext then Recycled
  else Sealed

let sync t = Kernel.sync_log t.k t.seg

(* Position-only sync: no coalescing-buffer drain. Reservations run on
   every logged write, so they must not force the buffer out. *)
let sync_pos t = Kernel.sync_log_pos t.k t.seg

let stream_version k seg =
  match Segment.log_mode seg with
  | Logger.Normal -> Logger.codec (Machine.logger (Kernel.machine k))
  | Logger.Direct_mapped | Logger.Indexed -> Log_record.V0

let length t =
  sync t;
  Segment.write_pos t.seg

let room t =
  sync t;
  Segment.size t.seg - Segment.write_pos t.seg

let stats t =
  sync t;
  let n = extent_count t in
  let count st =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if extent_state t i = st then incr c
    done;
    !c
  in
  let capacity = Segment.size t.seg in
  let pos = Segment.write_pos t.seg in
  {
    extents = n;
    extent_pages = t.extent_pages;
    active = count Active;
    sealed = count Sealed;
    recycled = count Recycled;
    capacity;
    write_pos = pos;
    utilization_pct = (if capacity = 0 then 0 else pos * 100 / capacity);
    truncation_lag = pos / extent_bytes t * extent_bytes t;
    switches = t.switches;
    reuses = t.reuses;
    recycled_total = t.recycled_total;
  }

(* {1 Extension and reservation} *)

let extend t ~pages =
  let seg = t.seg in
  let first_new = Segment.pages seg in
  Segment.grow seg ~pages;
  Lvm_obs.Counter.incr t.c_extends;
  event t
    (Lvm_obs.Event.Log_extend
       { segment = Segment.id seg; pages; total_pages = Segment.pages seg });
  for p = first_new to Segment.pages seg - 1 do
    ignore (Kernel.materialize_page t.k seg ~page:p)
  done;
  Kernel.leave_absorption t.k seg;
  refresh_gauges t

let reserve t ~bytes ~max_pages =
  if bytes < 0 then
    Error.raise_
      (Error.Out_of_range
         { op = "reserve_log_room"; what = "bytes"; value = bytes });
  sync_pos t;
  let seg = t.seg in
  let pending =
    Logger.pending_log_bytes_bound (Machine.logger (Kernel.machine t.k))
  in
  let pos = Segment.write_pos seg in
  let capacity = Segment.size seg in
  if pos + bytes + pending > capacity || Segment.absorbing seg then begin
    let short = max 0 (pos + bytes + pending - capacity) in
    let need =
      max
        (if Segment.absorbing seg then 1 else 0)
        ((short + Addr.page_size - 1) / Addr.page_size)
    in
    if Segment.pages seg + need <= max_pages then extend t ~pages:need
    else
      Error.raise_
        (Error.Log_exhausted { segment = Segment.id seg; pos; capacity })
  end

(* {1 Truncation and compaction} *)

let snapshot_bytes k seg ~len =
  let mem = Machine.mem (Kernel.machine k) in
  let buf = Bytes.create len in
  let off = ref 0 in
  while !off < len do
    let chunk = min (Addr.page_size - Addr.page_offset !off) (len - !off) in
    let paddr = Kernel.paddr_of k seg ~off:!off in
    Physmem.blit_to_bytes mem ~src:paddr buf ~pos:!off ~len:chunk;
    off := !off + chunk
  done;
  buf

let write_stream_bytes t buf =
  let mem = Machine.mem (Kernel.machine t.k) in
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    let chunk = min (Addr.page_size - Addr.page_offset !off) (len - !off) in
    let paddr = Kernel.paddr_of t.k t.seg ~off:!off in
    Physmem.blit_of_bytes mem buf ~pos:!off ~dst:paddr ~len:chunk;
    off := !off + chunk
  done

(* One sync, then the records below [keep_from] die: the kept suffix
   moves to the front and the extents it vacated are recycled. *)
let truncate t ~keep_from =
  sync t;
  let seg = t.seg in
  let pos = Segment.write_pos seg in
  if keep_from < 0 || keep_from > pos then
    Error.raise_
      (Error.Out_of_range
         { op = "truncate_log"; what = "keep_from"; value = keep_from });
  let remaining =
    match stream_version t.k t.seg with
    | Log_record.V0 ->
      let remaining = pos - keep_from in
      if remaining > 0 then begin
        (* Compact the kept suffix to the front, page by page (kernel
           copy, charged at bcopy cost — identical to the seed's
           truncate_log). *)
        let moved = ref 0 in
        while !moved < remaining do
          let src_off = keep_from + !moved in
          let dst_off = !moved in
          let chunk =
            min
              (min
                 (Addr.page_size - Addr.page_offset src_off)
                 (Addr.page_size - Addr.page_offset dst_off))
              (remaining - !moved)
          in
          let src = Kernel.paddr_of t.k seg ~off:src_off in
          let dst = Kernel.paddr_of t.k seg ~off:dst_off in
          Machine.bcopy (Kernel.machine t.k) ~src ~dst ~len:chunk;
          moved := !moved + chunk
        done
      end;
      remaining
    | Log_record.V1 ->
      (* An encoded suffix cannot be bcopied to the front: a delta's
         predecessor may be dying with the prefix, and pads were placed
         for the old page phase. Decode the kept containers (scanning
         from the stream head so every delta resolves) and re-encode
         them as a fresh stream, charged at the same bcopy rate over the
         bytes written. *)
      let buf = snapshot_bytes t.k t.seg ~len:pos in
      let kept = ref [] in
      ignore
        (Log_record.Codec.scan buf ~pos:0 ~len:pos ~f:(fun ~off ~next:_ rs ->
             if off >= keep_from then
               List.iter (fun r -> kept := r :: !kept) rs));
      let out = Log_record.Codec.encode_stream (List.rev !kept) in
      write_stream_bytes t out;
      let words = (Bytes.length out + Addr.word_size - 1) / Addr.word_size in
      Machine.compute (Kernel.machine t.k)
        (Cycles.bcopy_base + (words * Cycles.bcopy_per_word));
      Bytes.length out
  in
  Segment.set_write_pos seg remaining;
  let freed = keep_from / extent_bytes t in
  if freed > 0 then begin
    t.recycled_total <- t.recycled_total + freed;
    Lvm_obs.Counter.add t.c_recycled freed;
    event t
      (Lvm_obs.Event.Log_recycle { segment = Segment.id seg; extents = freed })
  end;
  Kernel.rearm_log t.k seg;
  refresh_gauges t

let seal t =
  sync t;
  let sealed = Segment.write_pos t.seg in
  (* A V1 stream's floor is its 8-byte version header, not zero. *)
  let empty =
    match stream_version t.k t.seg with
    | Log_record.V0 -> 0
    | Log_record.V1 -> Log_record.Codec.header_bytes
  in
  let sealed = if sealed <= empty then 0 else sealed in
  (* Sealing an empty active extent — including a second seal in the
     same epoch, which finds the ring already compacted to zero — is a
     no-op: no bytes move, no extents recycle, stats stay put. Without
     the early-out the ring would still run a zero-byte compaction and
     re-arm the logger, so a double seal perturbed gauges and charged
     a pointless rearm. *)
  if sealed = 0 then 0
  else begin
    truncate t ~keep_from:sealed;
    sealed
  end

let truncate_suffix t ~new_end =
  sync t;
  if new_end < 0 || new_end > Segment.write_pos t.seg then
    Error.raise_
      (Error.Out_of_range
         { op = "truncate_log_suffix"; what = "new_end"; value = new_end });
  Segment.set_write_pos t.seg new_end;
  Kernel.rearm_log t.k t.seg;
  refresh_gauges t

(* {1 Group commit} *)

module Batcher = struct
  type batcher = {
    group : int;
    force : unit -> unit;
    hist : Lvm_obs.Histogram.t option;
    mutable pending : int;
  }

  let create ?obs ~group ~force () =
    if group < 1 then
      Error.raise_
        (Error.Out_of_range
           { op = "Lvm_log.Batcher.create"; what = "group"; value = group });
    let hist =
      Option.map
        (fun ctx ->
          Lvm_obs.Ctx.histogram ctx ~name:"rlvm.commit_batch"
            ~bounds:[| 1; 2; 4; 8; 16; 32 |])
        obs
    in
    { group; force; hist; pending = 0 }

  let group b = b.group
  let pending b = b.pending

  let flush b =
    if b.pending > 0 then begin
      (match b.hist with
      | None -> ()
      | Some h -> Lvm_obs.Histogram.observe h b.pending);
      (* zero [pending] first so a crash injected inside the force leaves
         no phantom batch behind *)
      b.pending <- 0;
      b.force ()
    end

  let note_commit b =
    b.pending <- b.pending + 1;
    if b.pending >= b.group then flush b

  let reset b = b.pending <- 0
end
