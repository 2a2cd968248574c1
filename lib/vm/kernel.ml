open Lvm_machine

type ext = ..
(* Extension slot: upper layers (the log-lifecycle subsystem) hang their
   per-kernel state here without the kernel depending on them. *)

type t = {
  machine : Machine.t;
  mutable next_id : int;
  mutable spaces : Address_space.t list;
  currents : Address_space.t option array; (* current space, per CPU *)
  log_slots : Segment.t option array; (* logger log-table slot -> log seg *)
  pmt_loads : int list array; (* key pages loaded per slot, for eviction *)
  direct_slots : (int * int, int) Hashtbl.t;
      (* (log segment id, data page) -> slot, for direct-mapped logs
         which need one log-table entry per data page *)
  slot_direct_page : (int * int) option array; (* inverse of the above *)
  mutable next_victim : int;
  mutable frame_owner : (Segment.t * int) option array;
      (* frame -> seg, page; it grows to the highest frame owned, not to
         the size of memory *)
  dc_sources : (int, unit) Hashtbl.t; (* segment ids serving as dc sources *)
  default_log_frame : int;
  mutable on_protect_fault :
    (Address_space.t -> Region.t -> vaddr:int -> unit) option;
  mutable on_log_crossing :
    (Segment.t -> next_page:int -> absorbed:bool -> unit) option;
  mutable log_ext : ext option;
  c_materialized : Lvm_obs.Counter.counter;
  c_evicted : Lvm_obs.Counter.counter;
  c_switches : Lvm_obs.Counter.counter;
}

let machine t = t.machine
let perf t = Machine.perf t.machine
let obs t = Machine.obs t.machine
let snapshot t = Machine.snapshot t.machine
let time t = Machine.time t.machine
let compute t c = Machine.compute t.machine c

(* Each CPU runs its own process, so "the current address space" is a
   per-CPU notion; on a single-CPU kernel this degenerates to the
   original single slot. *)
let current t = t.currents.(Machine.current_cpu t.machine)
let set_current t v = t.currents.(Machine.current_cpu t.machine) <- v

let event t ev = Lvm_obs.Ctx.event (obs t) ~at:(Machine.time t.machine) ev

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* {1 Frames} *)

let set_owner t frame owner =
  let n = Array.length t.frame_owner in
  if frame >= n then begin
    let frames = Physmem.frames (Machine.mem t.machine) in
    let a = Array.make (min frames (max (frame + 1) (2 * n))) None in
    Array.blit t.frame_owner 0 a 0 n;
    t.frame_owner <- a
  end;
  t.frame_owner.(frame) <- owner

(* Write one resident page of a backed segment out to its store and
   release its frame, dropping page-table entries that reference it. *)
let evict_page t seg ~page =
  match (Segment.frame_of_page seg page, Segment.backing seg) with
  | None, _ ->
    Error.raise_
      (Error.Page_not_resident
         { op = "evict_page"; segment = Segment.id seg; page })
  | _, None ->
    Error.raise_
      (Error.No_backing_store { op = "evict_page"; segment = Segment.id seg })
  | Some frame, Some store ->
    Lvm_obs.Counter.incr t.c_evicted;
    Machine.compute t.machine Cycles.page_out;
    let buf = Bytes.create Addr.page_size in
    Physmem.blit_to_bytes (Machine.mem t.machine)
      ~src:(Addr.addr_of_page frame) buf ~pos:0 ~len:Addr.page_size;
    Backing_store.write_page store ~page buf;
    (* drop every mapping of this page *)
    List.iter
      (fun space ->
        List.iter
          (fun (base, region) ->
            if Segment.id (Region.segment region) = Segment.id seg then begin
              let off = (page * Addr.page_size) - Region.seg_offset region in
              if off >= 0 && off < Region.size region then
                Address_space.remove space
                  ~vpage:(Addr.page_number (base + off))
            end)
          (Address_space.regions space))
      t.spaces;
    Machine.l1_invalidate_page t.machine ~page:frame;
    set_owner t frame None;
    Segment.clear_frame seg ~page;
    Physmem.free_frame (Machine.mem t.machine) frame

(* A page is reclaimable when evicting it cannot lose state the kernel
   does not track: plain data segments with a backing store, not logged,
   not part of a deferred-copy pair. *)
let reclaimable t seg =
  Segment.kind seg = Segment.Std
  && Segment.backing seg <> None
  && Segment.source seg = None
  && Segment.logged_via seg = None
  && not (Hashtbl.mem t.dc_sources (Segment.id seg))

let reclaim_frames t ~target =
  let victims = ref [] and n = ref 0 and frame = ref 0 in
  while !n < target && !frame < Array.length t.frame_owner do
    (match t.frame_owner.(!frame) with
    | Some (seg, page) when reclaimable t seg ->
      victims := (seg, page) :: !victims;
      incr n
    | Some _ | None -> ());
    incr frame
  done;
  List.iter (fun (seg, page) -> evict_page t seg ~page) (List.rev !victims);
  !n

let materialize_page t seg ~page =
  match Segment.frame_of_page seg page with
  | Some f -> f
  | None ->
    Lvm_obs.Counter.incr t.c_materialized;
    let f =
      try Physmem.alloc_frame (Machine.mem t.machine)
      with Physmem.Out_of_frames ->
        (* memory pressure: page out reclaimable frames and retry *)
        if reclaim_frames t ~target:8 = 0 then raise Physmem.Out_of_frames
        else Physmem.alloc_frame (Machine.mem t.machine)
    in
    Segment.set_frame seg ~page ~frame:f;
    set_owner t f (Some (seg, page));
    (match (Segment.backing seg, Segment.manager seg) with
    | Some store, _ ->
      (* demand paging: load the page image from the backing store (the
         store, not the manager, defines a backed page's contents) *)
      Machine.compute t.machine Cycles.page_in;
      Physmem.blit_of_bytes (Machine.mem t.machine)
        (Backing_store.read_page store ~page)
        ~pos:0 ~dst:(Addr.addr_of_page f) ~len:Addr.page_size
    | None, Some fill -> fill seg page
    | None, None -> ());
    (* If this segment has a deferred-copy source, wire the new page. *)
    (match Segment.source seg with
    | None -> ()
    | Some (src, offset) ->
      let src_page = (offset / Addr.page_size) + page in
      if src_page < Segment.pages src then begin
        let src_frame =
          match Segment.frame_of_page src src_page with
          | Some f -> f
          | None ->
            let f = Physmem.alloc_frame (Machine.mem t.machine) in
            Segment.set_frame src ~page:src_page ~frame:f;
            set_owner t f (Some (src, src_page));
            f
        in
        Machine.dc_map t.machine ~dst_page:f
          ~src_addr:(Addr.addr_of_page src_frame)
      end);
    f

let owner_of_frame t ~frame =
  if frame >= 0 && frame < Array.length t.frame_owner then t.frame_owner.(frame)
  else None

let paddr_of t seg ~off =
  if off < 0 || off >= Segment.size seg then
    Error.raise_ (Error.Out_of_segment { segment = Segment.id seg; off });
  let frame = materialize_page t seg ~page:(Addr.page_number off) in
  Addr.addr_of_page frame + Addr.page_offset off

(* {1 Log segment activation} *)

let logger t = Machine.logger t.machine

(* Under the V1 codec every [Normal] log stream opens with the codec's
   8-byte version record — the on-disk tag that keeps V0 logs readable.
   The kernel materializes it when it arms a stream whose write position
   is still zero (first arming, or a truncation back to empty). *)
let ensure_stream_header t ls =
  if
    Logger.codec (logger t) = Log_record.V1
    && Segment.log_mode ls = Logger.Normal
    && (not (Segment.absorbing ls))
    && Segment.write_pos ls = 0
  then begin
    let frame = materialize_page t ls ~page:0 in
    let header = Log_record.Codec.encode_version_header () in
    Physmem.blit_of_bytes (Machine.mem t.machine) header ~pos:0
      ~dst:(Addr.addr_of_page frame) ~len:(Bytes.length header);
    Segment.set_write_pos ls Log_record.Codec.header_bytes
  end

(* Point the logger's log-table entry for [ls] at its current write
   position, materializing the page under it. *)
let arm_log_entry t ls ~index =
  ensure_stream_header t ls;
  let pos = Segment.write_pos ls in
  let page = pos / Addr.page_size in
  Segment.set_active_page ls page;
  let frame = materialize_page t ls ~page in
  Logger.set_log_entry (logger t) ~index ~mode:(Segment.log_mode ls)
    ~addr:(Addr.addr_of_page frame + Addr.page_offset pos)

(* [sync_log] is the hard synchronization point — commit/force/snapshot
   boundaries — so it first drains the logger's coalescing buffer (a
   no-op when coalescing is off). [sync_log_pos] only recomputes
   [write_pos] from the log table; the lifecycle layer's per-write room
   reservation uses it so reservations do not defeat coalescing. *)
let rec sync_log t ls =
  Logger.flush_coalesced (logger t);
  sync_log_pos t ls

and sync_log_pos t ls =
  match Segment.log_index ls with
  | None -> ()
  | Some index -> (
    match Logger.log_entry (logger t) ~index with
    | Some ((Logger.Normal | Logger.Indexed), addr) ->
      if not (Segment.absorbing ls) then
        Segment.set_write_pos ls
          ((Segment.active_page ls * Addr.page_size) + Addr.page_offset addr)
    | Some (Logger.Direct_mapped, _) -> ()
    | None ->
      (* Entry invalidated by a page crossing the kernel has not serviced
         yet: records end exactly at the page boundary. *)
      if not (Segment.absorbing ls) then
        Segment.set_write_pos ls
          ((Segment.active_page ls + 1) * Addr.page_size))

and deactivate_slot t index =
  match t.log_slots.(index) with
  | None -> ()
  | Some victim ->
    (match t.slot_direct_page.(index) with
    | Some key ->
      Hashtbl.remove t.direct_slots key;
      t.slot_direct_page.(index) <- None
    | None ->
      sync_log t victim;
      Segment.set_log_index victim None);
    Logger.invalidate_log_entry (logger t) ~index;
    List.iter
      (fun page -> Logger.invalidate_pmt (logger t) ~page)
      t.pmt_loads.(index);
    t.pmt_loads.(index) <- [];
    t.log_slots.(index) <- None

let free_slot t =
  let n = Array.length t.log_slots in
  let rec find i = if i = n then None
    else if t.log_slots.(i) = None then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> i
  | None ->
    (* Round-robin eviction of another log. *)
    let v = t.next_victim in
    t.next_victim <- (v + 1) mod n;
    deactivate_slot t v;
    v

let alloc_slot t ls =
  let index = free_slot t in
  t.log_slots.(index) <- Some ls;
  Segment.set_log_index ls (Some index);
  index

(* Service the page crossing that left [ls]'s log-table entry [index]
   invalid: move to the next log page and re-arm there, telling the
   lifecycle layer's crossing observer, or absorb into the default log
   page when no page was provided (Section 3.2). *)
let service_log_crossing t ls ~index =
  let next = Segment.active_page ls + 1 in
  (* Tell the log-lifecycle subsystem (if attached) about the page
     crossing; observers must be cycle-free. *)
  let notify absorbed =
    match t.on_log_crossing with
    | None -> ()
    | Some f -> f ls ~next_page:next ~absorbed
  in
  (* A [Log_exhaust] injection makes this crossing behave as if the user
     had provided no further pages, forcing the absorption branch below
     (Section 3.2's failure mode, on demand). *)
  let forced_exhaust =
    match Machine.fault_check t.machine ~site:Lvm_fault.Fault.Log_segment with
    | Some Lvm_fault.Fault.Log_exhaust -> true
    | Some _ | None -> false
  in
  (* Capacity the user provided (at creation or by extension) counts as
     "a page"; frames under it are materialized on demand. *)
  let have_page = (next < Segment.pages ls) && not forced_exhaust in
  if have_page && not (Segment.absorbing ls) then begin
    Segment.set_write_pos ls (next * Addr.page_size);
    arm_log_entry t ls ~index;
    notify false
  end
  else begin
    (* No page provided in time: absorb records into the default log
       page; they are lost (Section 3.2). *)
    if not (Segment.absorbing ls) then begin
      Segment.set_write_pos ls (next * Addr.page_size);
      Segment.set_absorbing ls true;
      event t (Lvm_obs.Event.Log_absorb { segment = Segment.id ls })
    end;
    Segment.note_absorbed_crossing ls;
    Logger.set_log_entry (logger t) ~index ~mode:(Segment.log_mode ls)
      ~addr:(Addr.addr_of_page t.default_log_frame);
    notify true
  end

let activate_log t ls =
  match Segment.log_index ls with
  | Some index ->
    (* An invalid entry on an active log is a page crossing the logger
       has not faulted on yet: service it here, exactly as the
       log-address fault would, so the crossing observer sees it and the
       records resume on the next page. *)
    if Logger.log_entry (logger t) ~index = None
       && not (Segment.absorbing ls)
    then service_log_crossing t ls ~index;
    index
  | None ->
    let index = alloc_slot t ls in
    arm_log_entry t ls ~index;
    index

(* Direct-mapped logs need a log-table entry per data page, pointing at
   the base of the corresponding log page. *)
let alloc_direct_slot t ls ~seg_page =
  let key = (Segment.id ls, seg_page) in
  match Hashtbl.find_opt t.direct_slots key with
  | Some index -> index
  | None ->
    let index = free_slot t in
    t.log_slots.(index) <- Some ls;
    t.slot_direct_page.(index) <- Some key;
    Hashtbl.replace t.direct_slots key index;
    let log_frame = materialize_page t ls ~page:seg_page in
    Logger.set_log_entry (logger t) ~index ~mode:Logger.Direct_mapped
      ~addr:(Addr.addr_of_page log_frame);
    index

(* Make the right log-table entry live for a write to [seg_page] of the
   data segment logged to [ls]. *)
let activate_for_page t ls ~seg_page =
  match Segment.log_mode ls with
  | Logger.Direct_mapped -> alloc_direct_slot t ls ~seg_page
  | Logger.Normal | Logger.Indexed -> activate_log t ls

let load_pmt_for t ~key_page ~index =
  Logger.load_pmt (logger t) ~page:key_page ~log_index:index;
  if not (List.mem key_page t.pmt_loads.(index)) then
    t.pmt_loads.(index) <- key_page :: t.pmt_loads.(index)

(* The PMT key for a logged page: the physical page in prototype hardware,
   the virtual page with on-chip logging (Section 4.6). *)
let pmt_key t ~frame ~vpage =
  match Logger.hw (logger t) with
  | Logger.Prototype -> frame
  | Logger.On_chip -> vpage

(* {1 Page faults} *)

let install_pte t space ~vaddr =
  Machine.compute t.machine Cycles.page_fault;
  (perf t).Perf.page_faults <- (perf t).Perf.page_faults + 1;
  event t
    (Lvm_obs.Event.Page_fault { space = Address_space.id space; vaddr });
  match Address_space.find_region space ~vaddr with
  | None ->
    Error.raise_
      (Error.Segmentation_fault { space = Address_space.id space; vaddr })
  | Some (base, region) ->
    let seg = Region.segment region in
    let seg_page = Region.seg_page_of_vaddr region ~base ~vaddr in
    let frame = materialize_page t seg ~page:seg_page in
    let logged = Region.is_logged region in
    (* Logged pages run the on-chip cache in write-through mode so every
       write is visible to the logger (Section 3.2). *)
    let pte =
      {
        Address_space.frame;
        write_through = logged;
        logged;
        protected_ = Region.write_protected region;
        dirty = false;
        region;
        seg_page;
      }
    in
    (if logged then
       match Region.log region with
       | None -> assert false
       | Some ls ->
         let index = activate_for_page t ls ~seg_page in
         load_pmt_for t
           ~key_page:(pmt_key t ~frame ~vpage:(Addr.page_number vaddr))
           ~index);
    Address_space.install space ~vpage:(Addr.page_number vaddr) pte;
    pte

let pte_for t space ~vaddr =
  match Address_space.lookup space ~vpage:(Addr.page_number vaddr) with
  | Some pte -> pte
  | None -> install_pte t space ~vaddr

(* {1 Protection faults} *)

let handle_protect_fault t space pte ~vaddr =
  Machine.compute t.machine Cycles.write_protect_fault;
  (perf t).Perf.write_protect_faults <-
    (perf t).Perf.write_protect_faults + 1;
  event t
    (Lvm_obs.Event.Protect_fault { space = Address_space.id space; vaddr });
  pte.Address_space.protected_ <- false;
  match t.on_protect_fault with
  | None -> ()
  | Some f -> f space pte.Address_space.region ~vaddr

(* {1 Access} *)

let check_access ~vaddr ~size =
  (match size with
  | 1 | 2 | 4 -> ()
  | _ -> Error.raise_ (Error.Bad_access_size { size }));
  if vaddr land (size - 1) <> 0 then
    Error.raise_ (Error.Unaligned_access { vaddr; size })

let read t space ~vaddr ~size =
  check_access ~vaddr ~size;
  let pte = pte_for t space ~vaddr in
  let paddr =
    Addr.addr_of_page pte.Address_space.frame + Addr.page_offset vaddr
  in
  Machine.read t.machine ~paddr ~size

let write t space ~vaddr ~size value =
  check_access ~vaddr ~size;
  let pte = pte_for t space ~vaddr in
  if pte.Address_space.protected_ then
    handle_protect_fault t space pte ~vaddr;
  let paddr =
    Addr.addr_of_page pte.Address_space.frame + Addr.page_offset vaddr
  in
  let mode =
    if pte.Address_space.write_through then Machine.Write_through
    else Machine.Write_back
  in
  Machine.write t.machine ~paddr ~vaddr ~size ~mode
    ~logged:pte.Address_space.logged value;
  pte.Address_space.dirty <- true

let read_word t space vaddr = read t space ~vaddr ~size:4
let write_word t space vaddr v = write t space ~vaddr ~size:4 v

(* {1 Logging faults (registered with the logger)} *)

let handle_pmt_miss t ~addr =
  match Logger.hw (logger t) with
  | Logger.Prototype -> (
    (* [addr] is physical: recover the owning segment, then the single
       logged region the prototype supports per segment. *)
    match owner_of_frame t ~frame:(Addr.page_number addr) with
    | None -> Logger.Drop
    | Some (seg, seg_page) -> (
      match Segment.logged_via seg with
      | None -> Logger.Drop
      | Some region_id -> (
        (* the region that currently owns this segment's logging — under
           per-process logs, the one the last context switch installed *)
        match
          List.find_map
            (fun space ->
              List.find_map
                (fun (_, r) ->
                  if Region.id r = region_id && Region.is_logged r then
                    Region.log r
                  else None)
                (Address_space.regions space))
            t.spaces
        with
        | None -> Logger.Drop
        | Some ls ->
          let index = activate_for_page t ls ~seg_page in
          load_pmt_for t ~key_page:(Addr.page_number addr) ~index;
          Logger.Fixed)))
  | Logger.On_chip -> (
    (* [addr] is virtual in the current space. *)
    match current t with
    | None -> Logger.Drop
    | Some space -> (
      match Address_space.find_region space ~vaddr:addr with
      | None -> Logger.Drop
      | Some (_, region) when not (Region.is_logged region) -> Logger.Drop
      | Some (base, region) -> (
        match Region.log region with
        | None -> Logger.Drop
        | Some ls ->
          let seg_page = Region.seg_page_of_vaddr region ~base ~vaddr:addr in
          let index = activate_for_page t ls ~seg_page in
          load_pmt_for t ~key_page:(Addr.page_number addr) ~index;
          Logger.Fixed)))

let handle_log_addr_invalid t ~log_index =
  match t.log_slots.(log_index) with
  | None -> Logger.Drop
  | Some ls -> (
    match Segment.log_mode ls with
    | Logger.Direct_mapped -> Logger.Drop
    | Logger.Normal | Logger.Indexed ->
      service_log_crossing t ls ~index:log_index;
      Logger.Fixed)

(* {1 Construction} *)

let create ?obs ?hw ?record_old_values ?codec ?coalesce_depth
    ?(frames = 4096) ?(log_entries = 64) ?cpus () =
  let machine =
    Machine.create ?obs ?hw ?record_old_values ?codec ?coalesce_depth ~frames
      ~log_entries ?cpus ()
  in
  let ctx = Machine.obs machine in
  let default_log_frame = Physmem.alloc_frame (Machine.mem machine) in
  let t =
    {
      machine;
      next_id = 1;
      spaces = [];
      currents = Array.make (Machine.cpus machine) None;
      log_slots = Array.make log_entries None;
      pmt_loads = Array.make log_entries [];
      direct_slots = Hashtbl.create 16;
      slot_direct_page = Array.make log_entries None;
      next_victim = 0;
      frame_owner = [||];
      dc_sources = Hashtbl.create 16;
      default_log_frame;
      on_protect_fault = None;
      on_log_crossing = None;
      log_ext = None;
      c_materialized = Lvm_obs.Ctx.counter ctx "kernel.pages_materialized";
      c_evicted = Lvm_obs.Ctx.counter ctx "kernel.pages_evicted";
      c_switches = Lvm_obs.Ctx.counter ctx "kernel.context_switches";
    }
  in
  (* Registered here so the counter appears in every snapshot from boot,
     even before any log is attached; Lvm_log increments it by name. *)
  ignore (Lvm_obs.Ctx.counter ctx "kernel.log_extends");
  Logger.set_fault_handler (Machine.logger machine) (function
    | Logger.Pmt_miss { paddr } -> handle_pmt_miss t ~addr:paddr
    | Logger.Log_addr_invalid { log_index } ->
      handle_log_addr_invalid t ~log_index);
  t

let create_space t =
  let s = Address_space.make ~id:(fresh_id t) in
  t.spaces <- s :: t.spaces;
  if current t = None then set_current t (Some s);
  s

let set_current_space t s = set_current t (Some s)
let current_space t = current t

let context_switch t space =
  Machine.compute t.machine Cycles.context_switch;
  Lvm_obs.Counter.incr t.c_switches;
  set_current t (Some space);
  match Logger.hw (logger t) with
  | Logger.On_chip ->
    (* the on-chip tables live in the TLB: flush them wholesale *)
    for index = 0 to Array.length t.log_slots - 1 do
      deactivate_slot t index
    done
  | Logger.Prototype ->
    (* claim shared logged segments for the incoming process's regions so
       its writes log to its own segments (Sections 2.1 and 3.1.2) *)
    List.iter
      (fun (_, region) ->
        if Region.is_logged region then begin
          let seg = Region.segment region in
          if Segment.logged_via seg <> Some (Region.id region) then begin
            Segment.set_logged_via seg (Some (Region.id region));
            for page = 0 to Segment.pages seg - 1 do
              match Segment.frame_of_page seg page with
              | Some frame -> Logger.invalidate_pmt (logger t) ~page:frame
              | None -> ()
            done
          end
        end)
      (Address_space.regions space)

let create_segment ?manager ?backing t ~size =
  (match backing with
  | Some store when Backing_store.size store < size ->
    Error.raise_
      (Error.Invalid
         { op = "create_segment";
           reason = "backing store smaller than segment" })
  | Some _ | None -> ());
  let seg = Segment.make ~id:(fresh_id t) ~kind:Segment.Std ~size in
  Segment.set_manager seg manager;
  Segment.set_backing seg backing;
  seg

(* msync analogue: push every resident page of a backed segment to its
   store without evicting it. *)
let sync_segment t seg =
  match Segment.backing seg with
  | None ->
    Error.raise_
      (Error.No_backing_store
         { op = "sync_segment"; segment = Segment.id seg })
  | Some store ->
    for page = 0 to Segment.pages seg - 1 do
      match Segment.frame_of_page seg page with
      | None -> ()
      | Some frame ->
        Machine.compute t.machine Cycles.page_out;
        let buf = Bytes.create Addr.page_size in
        Physmem.blit_to_bytes (Machine.mem t.machine)
          ~src:(Addr.addr_of_page frame) buf ~pos:0 ~len:Addr.page_size;
        Backing_store.write_page store ~page buf
    done

let create_log_segment ?(mode = Logger.Normal) t ~size =
  let seg = Segment.make ~id:(fresh_id t) ~kind:Segment.Log ~size in
  Segment.set_log_mode seg mode;
  seg

let create_region ?(seg_offset = 0) ?size t segment =
  let size =
    match size with Some s -> s | None -> Segment.size segment - seg_offset
  in
  Region.make ~id:(fresh_id t) ~segment ~seg_offset ~size

let bind _t space ?vaddr region = Address_space.bind space region ~vaddr
let unbind _t space region = Address_space.unbind space region

(* Re-derive the hardware mode bits of every resident page of a region
   after its logging configuration changed. *)
let refresh_region_ptes t region =
  List.iter
    (fun space ->
      match Region.binding region with
      | Some (sid, base) when sid = Address_space.id space ->
        let logged = Region.is_logged region in
        let log = Region.log region in
        for vpage = Addr.page_number base
          to Addr.page_number (base + Region.size region - 1) do
          match Address_space.lookup space ~vpage with
          | None -> ()
          | Some pte ->
            pte.Address_space.logged <- logged;
            pte.Address_space.write_through <- logged;
            if logged then
              match log with
              | None -> ()
              | Some ls ->
                let index =
                  activate_for_page t ls ~seg_page:pte.Address_space.seg_page
                in
                load_pmt_for t
                  ~key_page:(pmt_key t ~frame:pte.Address_space.frame ~vpage)
                  ~index
        done
      | _ -> ())
    t.spaces

let set_region_log t region log =
  Region.set_log region log;
  let seg = Region.segment region in
  (match log with
  | Some _ -> Segment.set_logged_via seg (Some (Region.id region))
  | None ->
    if Segment.logged_via seg = Some (Region.id region) then
      Segment.set_logged_via seg None);
  refresh_region_ptes t region

let set_logging_enabled t region enabled =
  Region.set_logging_enabled region enabled;
  refresh_region_ptes t region

(* {1 Log lifecycle hooks}

   The lifecycle itself — extension, reservation, truncation, extent
   accounting — lives in [Lvm_log] (lib/log); the kernel only exposes the
   privileged mechanics it needs: re-arming the logger at the current
   write position, a page-crossing observer, and an extension slot for
   its per-kernel registry. *)

let log_ext t = t.log_ext
let set_log_ext t v = t.log_ext <- v
let set_log_crossing_observer t f = t.on_log_crossing <- f

(* Leave absorption mode: the lifecycle layer provided fresh capacity, so
   logging resumes into the segment (records absorbed meanwhile are
   lost). *)
let leave_absorption t ls =
  if Segment.absorbing ls then begin
    Segment.set_absorbing ls false;
    match Segment.log_index ls with
    | None -> ()
    | Some index -> arm_log_entry t ls ~index
  end

(* Re-point the logger at the segment's current [write_pos] after the
   lifecycle layer moved it (truncation, compaction). The table entry's
   mode was fixed when the log was first armed, so a retarget suffices. *)
let rearm_log t ls =
  (* The lifecycle layer only calls this after moving [write_pos]
     (compaction, truncation): already-written records moved or died, so
     cached reader views of the record area are stale. *)
  Segment.bump_generation ls;
  ensure_stream_header t ls;
  let pos = Segment.write_pos ls in
  match Segment.log_index ls with
  | None -> Segment.set_active_page ls (pos / Addr.page_size)
  | Some index ->
    let page = pos / Addr.page_size in
    Segment.set_active_page ls page;
    let frame = materialize_page t ls ~page in
    Logger.retarget_log_entry (logger t) ~index
      ~addr:(Addr.addr_of_page frame + Addr.page_offset pos)

(* {1 Deferred copy} *)

let declare_source t ~dst ~src ~offset =
  if not (Addr.is_page_aligned offset) then
    Error.raise_
      (Error.Invalid
         { op = "declare_source"; reason = "offset must be page-aligned" });
  if offset + Segment.size dst > Segment.size src then
    Error.raise_
      (Error.Invalid { op = "declare_source"; reason = "source too small" });
  Segment.set_source dst (Some (src, offset));
  Hashtbl.replace t.dc_sources (Segment.id src) ();
  for page = 0 to Segment.pages dst - 1 do
    let src_page = (offset / Addr.page_size) + page in
    let src_frame = materialize_page t src ~page:src_page in
    let dst_frame = materialize_page t dst ~page in
    Machine.dc_map t.machine ~dst_page:dst_frame
      ~src_addr:(Addr.addr_of_page src_frame)
  done

let reset_deferred_copy t space ~start ~len =
  if len < 0 then
    Error.raise_
      (Error.Out_of_range
         { op = "reset_deferred_copy"; what = "len"; value = len });
  (perf t).Perf.dc_resets <- (perf t).Perf.dc_resets + 1;
  let scanned0 = (perf t).Perf.dc_pages_scanned in
  let dirty0 = (perf t).Perf.dc_pages_dirty in
  for vpage = Addr.page_number start
    to Addr.page_number (start + len - 1) do
    match Address_space.lookup space ~vpage with
    | None -> ()
    | Some pte ->
      Machine.dc_reset_page t.machine ~dst_page:pte.Address_space.frame;
      pte.Address_space.dirty <- false
  done;
  event t
    (Lvm_obs.Event.Dc_reset
       { pages = (perf t).Perf.dc_pages_scanned - scanned0;
         dirty = (perf t).Perf.dc_pages_dirty - dirty0 })

let reset_deferred_segment t seg =
  (perf t).Perf.dc_resets <- (perf t).Perf.dc_resets + 1;
  let scanned0 = (perf t).Perf.dc_pages_scanned in
  let dirty0 = (perf t).Perf.dc_pages_dirty in
  for page = 0 to Segment.pages seg - 1 do
    match Segment.frame_of_page seg page with
    | None -> ()
    | Some frame -> Machine.dc_reset_page t.machine ~dst_page:frame
  done;
  event t
    (Lvm_obs.Event.Dc_reset
       { pages = (perf t).Perf.dc_pages_scanned - scanned0;
         dirty = (perf t).Perf.dc_pages_dirty - dirty0 })

(* Enumerate the modified byte runs of a deferred-copy destination
   segment, at the line granularity the second-level cache tracks:
   exactly the modification set a failure-atomic snapshot must persist.
   Adjacent dirty lines coalesce into one span. Cycle-free — the dirty
   bits are already in the cache's line maps. *)
let dirty_spans t seg =
  let dc = Machine.deferred t.machine in
  let spans = ref [] (* newest first *) in
  let add off len =
    match !spans with
    | (o, l) :: rest when o + l = off -> spans := (o, l + len) :: rest
    | _ -> spans := (off, len) :: !spans
  in
  for page = 0 to Segment.pages seg - 1 do
    match Segment.frame_of_page seg page with
    | None -> ()
    | Some frame ->
      List.iter
        (fun line ->
          add
            ((page * Addr.page_size) + (line * Addr.line_size))
            Addr.line_size)
        (Lvm_machine.Deferred_cache.modified_lines dc ~dst_page:frame)
  done;
  List.rev !spans

(* {1 Write protection} *)

let protect_region t region =
  Region.set_write_protected region true;
  List.iter
    (fun space ->
      match Region.binding region with
      | Some (sid, base) when sid = Address_space.id space ->
        for vpage = Addr.page_number base
          to Addr.page_number (base + Region.size region - 1) do
          match Address_space.lookup space ~vpage with
          | None -> ()
          | Some pte -> pte.Address_space.protected_ <- true
        done
      | _ -> ())
    t.spaces

let set_protect_fault_handler t f = t.on_protect_fault <- f
let protect_fault_handler t = t.on_protect_fault

let remap_page t space region ~seg_page ~new_frame =
  let seg = Region.segment region in
  match Segment.frame_of_page seg seg_page with
  | None ->
    Error.raise_
      (Error.Page_not_resident
         { op = "remap_page"; segment = Segment.id seg; page = seg_page })
  | Some old_frame ->
    Machine.compute t.machine Cycles.page_remap;
    Segment.set_frame seg ~page:seg_page ~frame:new_frame;
    set_owner t old_frame None;
    set_owner t new_frame (Some (seg, seg_page));
    (match Region.binding region with
    | Some (sid, base) when sid = Address_space.id space ->
      let vpage =
        Addr.page_number
          (base + ((seg_page * Addr.page_size) - Region.seg_offset region))
      in
      (match Address_space.lookup space ~vpage with
      | Some pte -> pte.Address_space.frame <- new_frame
      | None -> ())
    | Some _ | None -> ());
    Machine.l1_invalidate_page t.machine ~page:old_frame;
    Physmem.free_frame (Machine.mem t.machine) old_frame

(* {1 Raw access} *)

let find_mapping t ~vaddr =
  let in_space space =
    match Address_space.find_region space ~vaddr with
    | Some (base, region) ->
      Some
        ( Region.segment region,
          Region.seg_offset region + (vaddr - base) )
    | None -> None
  in
  let rest = List.filter_map in_space t.spaces in
  match current t with
  | Some space -> (
    match in_space space with Some x -> Some x | None ->
      (match rest with x :: _ -> Some x | [] -> None))
  | None -> (match rest with x :: _ -> Some x | [] -> None)

let seg_read_raw t seg ~off ~size =
  let paddr = paddr_of t seg ~off in
  let resolved =
    Lvm_machine.Deferred_cache.resolve_read (Machine.deferred t.machine)
      ~paddr
  in
  Machine.read_raw t.machine ~paddr:resolved ~size

let seg_write_raw t seg ~off ~size v =
  let paddr = paddr_of t seg ~off in
  Machine.write_raw t.machine ~paddr ~size v

(* {1 Multi-CPU scheduling} *)

let cpus t = Machine.cpus t.machine
let current_cpu t = Machine.current_cpu t.machine
let set_cpu t cpu = Machine.set_cpu t.machine cpu
let cpu_time t ~cpu = Machine.cpu_time t.machine ~cpu
let max_time t = Machine.max_time t.machine

(* Deterministic round-robin: each pass gives every live task one step on
   its CPU, in CPU order. Simulated time is carried per CPU by the
   machine's clocks, so interleaving at step granularity — rather than
   sorting by clock — keeps the schedule independent of the workloads'
   relative speeds, which is what makes multi-CPU runs reproducible. *)
let run_cpus t ~tasks =
  let n = Array.length tasks in
  if n = 0 || n > cpus t then
    invalid_arg "Kernel.run_cpus: need 1 <= tasks <= cpus";
  let live = Array.make n true in
  let remaining = ref n in
  while !remaining > 0 do
    for i = 0 to n - 1 do
      if live.(i) then begin
        set_cpu t i;
        if not (tasks.(i) ()) then begin
          live.(i) <- false;
          decr remaining
        end
      end
    done
  done;
  set_cpu t 0

let run_cpus_clocked t ~tasks =
  let n = Array.length tasks in
  if n = 0 || n > cpus t then
    invalid_arg "Kernel.run_cpus_clocked: need 1 <= tasks <= cpus";
  let live = Array.make n true in
  let remaining = ref n in
  while !remaining > 0 do
    (* Conservative event order: of the unfinished tasks, step the one
       whose CPU clock is lowest; scanning downwards with [<=] makes
       ties land on the lowest CPU index. *)
    let next = ref (-1) in
    for i = n - 1 downto 0 do
      if live.(i)
         && (!next = -1 || cpu_time t ~cpu:i <= cpu_time t ~cpu:!next)
      then next := i
    done;
    let i = !next in
    set_cpu t i;
    if not (tasks.(i) ()) then begin
      live.(i) <- false;
      decr remaining
    end
  done;
  set_cpu t 0
