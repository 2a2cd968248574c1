type hw = Prototype | On_chip
type mode = Normal | Direct_mapped | Indexed

type fault =
  | Pmt_miss of { paddr : int }
  | Log_addr_invalid of { log_index : int }

type fault_outcome = Fixed | Drop

type log_entry = { mutable l_valid : bool; mutable l_mode : mode;
                   mutable next_addr : int }

(* A snooped write entering the logger pipeline. *)
type raw = {
  w_paddr : int;
  w_vaddr : int;
  w_size : int;
  w_value : int;
  w_arrival : int;
  w_timestamp : int;
  w_pre_image : bool;
}

(* Codec / coalescing metrics, registered only when either feature is
   enabled so the default configuration's metrics snapshot stays
   byte-identical to the seed. *)
type diet_stats = {
  s_absorbed : Lvm_obs.Counter.counter; (* writes merged in the buffer *)
  s_flushed : Lvm_obs.Counter.counter; (* records leaving the buffer *)
  s_raw : Lvm_obs.Counter.counter;
  s_run : Lvm_obs.Counter.counter;
  s_delta : Lvm_obs.Counter.counter;
  s_pad : Lvm_obs.Counter.counter;
  s_logical_bytes : Lvm_obs.Counter.counter; (* 16 B per logical record *)
  s_encoded_bytes : Lvm_obs.Counter.counter; (* stream bytes, pads included *)
}

type t = {
  hw : hw;
  record_old_values : bool;
  codec : Log_record.version;
  coalesce_depth : int;
  co : raw Squash.t option; (* the coalescing buffer, keyed by word paddr *)
  stats : diet_stats option;
  mutable pmt : int array;
    (* the PMT, two ints per slot: the tag (-1 = invalid) and the log
       index. It starts empty and grows to the highest slot loaded, capped
       at [1 lsl pmt_bits] slots; a slot past its end is invalid. *)
  pmt_bits : int;
  table : log_entry array;
  fifo : Fifo.t; (* snooped entries awaiting DMA completion *)
  onchip_buffer : int;
  mutable clock : int ref;
    (* the issuing CPU's clock — overloads suspend that CPU; the machine
       repoints this when it switches CPUs *)
  mem : Physmem.t;
  bus : Bus.t;
  perf : Perf.t;
  obs : Lvm_obs.Ctx.t;
  fifo_hist : Lvm_obs.Histogram.t;
  mutable free_at : int; (* logger pipeline availability *)
  mutable enabled : bool;
  mutable on_fault : fault -> fault_outcome;
  mutable snoop_observer :
    (paddr:int -> vaddr:int -> size:int -> value:int -> unit) option;
  mutable fault_plan : Lvm_fault.Plan.t option;
}

let create ?obs ?(hw = Prototype) ?(record_old_values = false)
    ?(codec = Log_record.V0) ?(coalesce_depth = 0) ?(pmt_bits = 15)
    ?(log_entries = 64) ~clock mem bus perf =
  let obs = match obs with Some o -> o | None -> Lvm_obs.Ctx.create () in
  if pmt_bits < 2 || pmt_bits > 20 then invalid_arg "Logger.create: pmt_bits";
  if log_entries <= 0 then invalid_arg "Logger.create: log_entries";
  if record_old_values && hw <> On_chip then
    invalid_arg "Logger.create: old-value records need on-chip logging";
  if coalesce_depth < 0 then invalid_arg "Logger.create: coalesce_depth";
  if coalesce_depth > 0 && record_old_values then
    invalid_arg
      "Logger.create: coalescing absorbs writes, old-value records need \
       every store";
  let stats =
    if codec = Log_record.V1 || coalesce_depth > 0 then
      let c name = Lvm_obs.Ctx.counter obs ("log." ^ name) in
      Some
        {
          s_absorbed = c "coalesce_absorbed";
          s_flushed = c "coalesce_flushed";
          s_raw = c "records_raw";
          s_run = c "records_run";
          s_delta = c "records_delta";
          s_pad = c "records_pad";
          s_logical_bytes = c "bytes_logical";
          s_encoded_bytes = c "bytes_encoded";
        }
    else None
  in
  {
    hw;
    record_old_values;
    codec;
    coalesce_depth;
    co =
      (if coalesce_depth > 0 then Some (Squash.create ~depth:coalesce_depth)
       else None);
    stats;
    pmt = [||];
    pmt_bits;
    table =
      Array.init log_entries (fun _ ->
          { l_valid = false; l_mode = Normal; next_addr = 0 });
    fifo = Fifo.create ~capacity:Cycles.logger_fifo_capacity;
    onchip_buffer = 8;
    clock;
    mem;
    bus;
    perf;
    obs;
    fifo_hist =
      Lvm_obs.Ctx.histogram obs ~name:"logger.fifo_occupancy"
        ~bounds:(Lvm_obs.Histogram.pow2_bounds ~max_exp:10);
    free_at = 0;
    enabled = true;
    on_fault = (fun _ -> Drop);
    snoop_observer = None;
    fault_plan = None;
  }

let hw t = t.hw
let records_old_values t = t.record_old_values
let codec t = t.codec
let coalesce_depth t = t.coalesce_depth
let coalesce_pending t =
  match t.co with Some co -> Squash.pending co | None -> 0
let set_enabled t b = t.enabled <- b
let enabled t = t.enabled
let set_fault_handler t f = t.on_fault <- f
let set_clock t clock = t.clock <- clock
let set_snoop_observer t f = t.snoop_observer <- f
let set_fault_plan t p = t.fault_plan <- p

(* Worst-case log bytes still owed by the coalescing buffer: the
   log-lifecycle layer adds this to its reservations so a deferred flush
   can never land past the end of the segment. *)
let pending_log_bytes_bound t =
  let pending = coalesce_pending t in
  match t.codec with
  | Log_record.V0 -> pending * Log_record.bytes
  | Log_record.V1 -> Log_record.Codec.worst_case_bytes ~writes:pending

let fault_check t ~site ~cycle =
  match t.fault_plan with
  | None -> None
  | Some plan -> Lvm_fault.Plan.check_crash plan ~site ~cycle
let log_entries t = Array.length t.table
let slot t page = page land ((1 lsl t.pmt_bits) - 1)
let tag_of t page = page lsr t.pmt_bits

let load_pmt t ~page ~log_index =
  if log_index < 0 || log_index >= Array.length t.table then
    invalid_arg "Logger.load_pmt: bad log index";
  let i = 2 * slot t page in
  let n = Array.length t.pmt in
  if i >= n then begin
    let pmt =
      Array.make (min (2 lsl t.pmt_bits) (max (i + 2) (2 * n))) (-1)
    in
    Array.blit t.pmt 0 pmt 0 n;
    t.pmt <- pmt
  end;
  t.pmt.(i) <- tag_of t page;
  t.pmt.(i + 1) <- log_index

(* The log index [page] maps to, or -1 on a miss: the per-write lookup,
   which builds no option. *)
let pmt_index t ~page =
  let i = 2 * slot t page in
  if i < Array.length t.pmt && t.pmt.(i) = tag_of t page then t.pmt.(i + 1)
  else -1

let pmt_lookup t ~page =
  let i = pmt_index t ~page in
  if i < 0 then None else Some i

let invalidate_pmt t ~page =
  let i = 2 * slot t page in
  if i < Array.length t.pmt && t.pmt.(i) = tag_of t page then
    t.pmt.(i) <- -1

let set_log_entry t ~index ~mode ~addr =
  if index < 0 || index >= Array.length t.table then
    invalid_arg "Logger.set_log_entry: bad index";
  let e = t.table.(index) in
  e.l_valid <- true;
  e.l_mode <- mode;
  e.next_addr <- addr

let retarget_log_entry t ~index ~addr =
  if index < 0 || index >= Array.length t.table then
    invalid_arg "Logger.retarget_log_entry: bad index";
  let e = t.table.(index) in
  e.l_valid <- true;
  e.next_addr <- addr

let invalidate_log_entry t ~index =
  if index < 0 || index >= Array.length t.table then
    invalid_arg "Logger.invalidate_log_entry: bad index";
  t.table.(index).l_valid <- false

let entry t ~index =
  if index < 0 || index >= Array.length t.table then
    invalid_arg "Logger.log_entry: bad index";
  t.table.(index)

let log_entry t ~index =
  let e = entry t ~index in
  if e.l_valid then Some (e.l_mode, e.next_addr) else None

let log_entry_addr t ~index =
  let e = entry t ~index in
  if e.l_valid then e.next_addr else -1

let log_entry_mode t ~index = (entry t ~index).l_mode

(* Field a logging fault: the logger suspends while the kernel repairs its
   tables, which costs CPU time. *)
let fault t f =
  (match f with
  | Pmt_miss { paddr } ->
    t.perf.Perf.logging_faults_pmt <- t.perf.Perf.logging_faults_pmt + 1;
    Lvm_obs.Ctx.event t.obs ~at:!(t.clock)
      (Lvm_obs.Event.Logging_fault
         { kind = Lvm_obs.Event.Pmt_miss; addr = paddr })
  | Log_addr_invalid { log_index } ->
    t.perf.Perf.logging_faults_log_addr <-
      t.perf.Perf.logging_faults_log_addr + 1;
    Lvm_obs.Ctx.event t.obs ~at:!(t.clock)
      (Lvm_obs.Event.Logging_fault
         { kind = Lvm_obs.Event.Log_addr_invalid; addr = log_index }));
  t.clock := !(t.clock) + Cycles.logging_fault;
  t.on_fault f

(* Emit the record bytes at [addr] and advance the log table entry,
   invalidating it on page crossing. *)
let emit t entry ~record_addr ~paddr ~vaddr ~size ~value ~timestamp
    ~pre_image =
  let logged_addr = match t.hw with Prototype -> paddr | On_chip -> vaddr in
  match entry.l_mode with
  | Normal ->
    Log_record.encode_fields t.mem ~paddr:record_addr ~addr:logged_addr ~value
      ~size ~timestamp ~pre_image;
    entry.next_addr <- record_addr + Log_record.bytes;
    if Addr.page_offset entry.next_addr = 0 then entry.l_valid <- false
  | Direct_mapped ->
    let off = Addr.page_offset paddr in
    Physmem.write_sized t.mem (Addr.page_base record_addr + off) ~size value
  | Indexed ->
    Physmem.write_word t.mem record_addr value;
    entry.next_addr <- record_addr + Addr.word_size;
    if Addr.page_offset entry.next_addr = 0 then entry.l_valid <- false

(* Run one write FIFO entry, given field by field, through the logger
   pipeline: table lookups and record formation, then the DMA whose final
   cycles occupy the bus. *)
let rec service t ~paddr ~vaddr ~size ~value ~arrival ~timestamp ~pre_image
    ~attempts =
  if attempts > 4 then
    t.perf.Perf.log_records_lost <- t.perf.Perf.log_records_lost + 1
  else
    (* The prototype's page mapping table is keyed by physical page; the
       on-chip design (Section 4.6) keys its TLB-resident log descriptors
       by virtual page, which is what makes per-region logs possible. *)
    let key = match t.hw with Prototype -> paddr | On_chip -> vaddr in
    let page = Addr.page_number key in
    let log_index = pmt_index t ~page in
    if log_index < 0 then begin
      match fault t (Pmt_miss { paddr = key }) with
      | Drop ->
        t.perf.Perf.log_records_lost <- t.perf.Perf.log_records_lost + 1
      | Fixed ->
        service t ~paddr ~vaddr ~size ~value ~arrival ~timestamp ~pre_image
          ~attempts:(attempts + 1)
    end
    else
      let entry = t.table.(log_index) in
      if not entry.l_valid then begin
        match fault t (Log_addr_invalid { log_index }) with
        | Drop ->
          t.perf.Perf.log_records_lost <- t.perf.Perf.log_records_lost + 1
        | Fixed ->
          service t ~paddr ~vaddr ~size ~value ~arrival ~timestamp ~pre_image
            ~attempts:(attempts + 1)
      end
      else begin
        match fault_check t ~site:Lvm_fault.Fault.Log_dma ~cycle:!(t.clock) with
        | Some Lvm_fault.Fault.Dma_fail ->
          (* The record DMA fails in flight: the record is lost, exactly
             like an unrepairable logging fault. *)
          t.perf.Perf.log_records_lost <- t.perf.Perf.log_records_lost + 1
        | Some _ | None ->
        emit t entry ~record_addr:entry.next_addr ~paddr ~vaddr ~size ~value
          ~timestamp ~pre_image;
        let start = Int.max arrival t.free_at in
        let lookup_done = start + Cycles.logger_lookup in
        let dma_internal =
          Cycles.log_record_dma_total - Cycles.log_record_dma_bus
        in
        let bus_done =
          Bus.access t.bus ~track:Bus.Dma ~now:(lookup_done + dma_internal)
            ~cycles:Cycles.log_record_dma_bus
        in
        t.free_at <- bus_done;
        Fifo.push t.fifo ~drain_time:bus_done;
        t.perf.Perf.log_records <- t.perf.Perf.log_records + 1;
        match t.snoop_observer with
        | Some observe when not pre_image -> observe ~paddr ~vaddr ~size ~value
        | Some _ | None -> ()
      end

let service_one t (w : raw) ~attempts =
  service t ~paddr:w.w_paddr ~vaddr:w.w_vaddr ~size:w.w_size ~value:w.w_value
    ~arrival:w.w_arrival ~timestamp:w.w_timestamp ~pre_image:w.w_pre_image
    ~attempts

let occupancy_at t ~now = Fifo.occupancy t.fifo ~now
let occupancy t = occupancy_at t ~now:!(t.clock)
let drained_at t = max !(t.clock) (Fifo.last_drain_time t.fifo)

let flush t =
  let pending = occupancy_at t ~now:!(t.clock) in
  let target = Fifo.last_drain_time t.fifo in
  if pending > 0 then
    Lvm_obs.Ctx.event t.obs ~at:!(t.clock)
      (Lvm_obs.Event.Dma_flush { pending; drained_at = max !(t.clock) target });
  if target > !(t.clock) then t.clock := target;
  Fifo.drain_until t.fifo ~now:!(t.clock)

let busy t = occupancy_at t ~now:!(t.clock) > 0

(* Check FIFO pressure at [arrival]. In Prototype mode, crossing the
   threshold raises the overload interrupt: processes are suspended until
   the FIFOs drain, then pay the kernel suspend/resume overhead. In
   On_chip mode the processor simply stalls when its small write buffer of
   pending records is full. *)
let admit t ~arrival =
  match t.hw with
  | Prototype ->
    let occupancy = occupancy_at t ~now:arrival in
    Lvm_obs.Histogram.observe t.fifo_hist occupancy;
    let forced =
      match fault_check t ~site:Lvm_fault.Fault.Logger_admit ~cycle:arrival with
      | Some Lvm_fault.Fault.Fifo_overrun -> true
      | Some _ | None -> false
    in
    if forced || occupancy >= Cycles.logger_fifo_threshold then begin
      t.perf.Perf.overloads <- t.perf.Perf.overloads + 1;
      Lvm_obs.Ctx.event t.obs ~at:arrival
        (Lvm_obs.Event.Overload_enter { occupancy });
      let drained = Int.max arrival (Fifo.last_drain_time t.fifo) in
      let resume = drained + Cycles.overload_suspend in
      t.perf.Perf.overload_cycles <-
        t.perf.Perf.overload_cycles + (resume - arrival);
      t.clock := Int.max !(t.clock) resume;
      Lvm_obs.Ctx.event t.obs ~at:resume
        (Lvm_obs.Event.Overload_exit { suspended = resume - arrival });
      Fifo.drain_until t.fifo ~now:!(t.clock)
    end
  | On_chip ->
    Lvm_obs.Histogram.observe t.fifo_hist (occupancy_at t ~now:!(t.clock));
    if occupancy_at t ~now:!(t.clock) >= t.onchip_buffer then begin
      while Fifo.occupancy t.fifo ~now:!(t.clock) >= t.onchip_buffer do
        match Fifo.head_drain_time t.fifo with
        | None -> ()
        | Some d -> t.clock := Int.max !(t.clock) d
      done
    end

(* {1 The V1 encoded datapath}

   Under the V1 codec the logger forms variable-length physical records:
   runs of sequential word writes share one header, a word-diff against
   the previous record's cache line shrinks to 8 bytes, and pads keep
   records from straddling page boundaries (the page-grain re-arm
   machinery — [Log_addr_invalid] faults — is unchanged). DMA cost
   scales with the encoded size: a physical record of [len] bytes books
   [ceil(len/16)] 16-byte DMA units on the bus and occupies that many
   FIFO slots, which is exactly where the bandwidth diet pays off. *)

let record_of_raw t (w : raw) =
  let logged_addr =
    match t.hw with Prototype -> w.w_paddr | On_chip -> w.w_vaddr
  in
  { Log_record.addr = logged_addr; value = w.w_value; size = w.w_size;
    timestamp = w.w_timestamp; pre_image = w.w_pre_image }

let lose t n =
  t.perf.Perf.log_records_lost <- t.perf.Perf.log_records_lost + n

let note_group t (g : Log_record.Codec.group) =
  match t.stats with
  | None -> ()
  | Some s ->
    let n = List.length (Log_record.Codec.group_records g) in
    Lvm_obs.Counter.add s.s_logical_bytes (n * Log_record.bytes);
    Lvm_obs.Counter.add s.s_encoded_bytes (Log_record.Codec.group_bytes g);
    (match g with
    | Log_record.Codec.G_raw _ -> Lvm_obs.Counter.incr s.s_raw
    | Log_record.Codec.G_run _ -> Lvm_obs.Counter.incr s.s_run
    | Log_record.Codec.G_delta _ -> Lvm_obs.Counter.incr s.s_delta)

let note_pad t ~len =
  match t.stats with
  | None -> ()
  | Some s ->
    Lvm_obs.Counter.incr s.s_pad;
    Lvm_obs.Counter.add s.s_encoded_bytes len

(* Emit one physical record at the log entry's current address, splitting
   runs (or padding) so no record straddles a page. Returns whether the
   whole group made it into the stream. *)
let rec emit_phys t ~log_index (g : Log_record.Codec.group) ~attempts =
  let n = List.length (Log_record.Codec.group_records g) in
  if attempts > 4 then begin
    lose t n;
    false
  end
  else
    let entry = t.table.(log_index) in
    if not entry.l_valid then begin
      match fault t (Log_addr_invalid { log_index }) with
      | Drop ->
        lose t n;
        false
      | Fixed -> emit_phys t ~log_index g ~attempts:(attempts + 1)
    end
    else begin
      let addr = entry.next_addr in
      let remaining = Addr.page_size - Addr.page_offset addr in
      let glen = Log_record.Codec.group_bytes g in
      if glen > remaining then begin
        match g with
        | Log_record.Codec.G_run rs when remaining >= 12 + 8 ->
          (* split the run at the page boundary *)
          let k = (remaining - 12) / 4 in
          let rec take i = function
            | x :: rest when i > 0 ->
              let a, b = take (i - 1) rest in
              (x :: a, b)
            | rest -> ([], rest)
          in
          let first, rest = take k rs in
          let ok1 = emit_phys t ~log_index (Log_record.Codec.G_run first)
              ~attempts
          in
          let g' =
            match rest with
            | [ r ] -> Log_record.Codec.G_raw r
            | rs -> Log_record.Codec.G_run rs
          in
          let ok2 = emit_phys t ~log_index g' ~attempts:0 in
          ok1 && ok2
        | _ ->
          (* pad out the page; the entry invalidates at the boundary and
             the retry faults into the kernel to arm the next page *)
          let pad = Log_record.Codec.encode_pad ~len:remaining in
          Physmem.blit_of_bytes t.mem pad ~pos:0 ~dst:addr ~len:remaining;
          note_pad t ~len:remaining;
          entry.next_addr <- addr + remaining;
          entry.l_valid <- false;
          emit_phys t ~log_index g ~attempts
      end
      else begin
        let arrival = !(t.clock) in
        admit t ~arrival;
        let arrival = Int.max arrival !(t.clock) in
        match fault_check t ~site:Lvm_fault.Fault.Log_dma ~cycle:!(t.clock) with
        | Some Lvm_fault.Fault.Dma_fail ->
          (* the whole physical record is lost in flight *)
          lose t n;
          false
        | Some _ | None ->
          let b = Log_record.Codec.encode_group g in
          Physmem.blit_of_bytes t.mem b ~pos:0 ~dst:addr ~len:glen;
          entry.next_addr <- addr + glen;
          if Addr.page_offset entry.next_addr = 0 then entry.l_valid <- false;
          let units = (glen + Log_record.bytes - 1) / Log_record.bytes in
          let start = Int.max arrival t.free_at in
          let lookup_done = start + Cycles.logger_lookup in
          let dma_internal =
            Cycles.log_record_dma_total - Cycles.log_record_dma_bus
          in
          let bus_done =
            Bus.access t.bus ~track:Bus.Dma ~now:(lookup_done + dma_internal)
              ~cycles:(units * Cycles.log_record_dma_bus)
          in
          t.free_at <- bus_done;
          for _ = 1 to units do
            Fifo.push t.fifo ~drain_time:bus_done
          done;
          t.perf.Perf.log_records <- t.perf.Perf.log_records + units;
          note_group t g;
          true
      end
    end

(* Resolve a snooped write to its log table index (-1 once the write is
   lost), faulting the kernel in for PMT misses exactly as the V0 pipeline
   does. *)
let rec resolve_index t (w : raw) ~attempts =
  if attempts > 4 then begin
    lose t 1;
    -1
  end
  else
    let key = match t.hw with Prototype -> w.w_paddr | On_chip -> w.w_vaddr in
    let log_index = pmt_index t ~page:(Addr.page_number key) in
    if log_index >= 0 then log_index
    else begin
      match fault t (Pmt_miss { paddr = key }) with
      | Drop ->
        lose t 1;
        -1
      | Fixed -> resolve_index t w ~attempts:(attempts + 1)
    end

(* Service a batch of writes through the encoded pipeline: resolve each
   one, group consecutive same-log Normal-mode writes into compact
   physical records, and emit. Non-[Normal] log entries (mapped and
   streamed device output) keep the bare V0 datapath — their streams
   carry no headers and no framing. *)
let service_batch t raws =
  let resolved =
    List.filter_map
      (fun w ->
        let i = resolve_index t w ~attempts:0 in
        if i < 0 then None else Some (i, w))
      raws
  in
  (* split into runs of consecutive writes to the same log *)
  let segments =
    List.fold_left
      (fun acc (i, w) ->
        match acc with
        | (j, ws) :: rest when j = i -> (j, w :: ws) :: rest
        | _ -> (i, [ w ]) :: acc)
      [] resolved
    |> List.rev_map (fun (i, ws) -> (i, List.rev ws))
  in
  List.iter
    (fun (log_index, seg) ->
      match t.table.(log_index).l_mode with
      | Direct_mapped | Indexed ->
        List.iter
          (fun w ->
            let arrival = !(t.clock) in
            admit t ~arrival;
            service_one t
              { w with w_arrival = Int.max arrival !(t.clock) }
              ~attempts:0)
          seg
      | Normal ->
        let records = List.map (record_of_raw t) seg in
        let groups = Log_record.Codec.group_batch records in
        let rest = ref seg in
        List.iter
          (fun g ->
            let n = List.length (Log_record.Codec.group_records g) in
            let rec take i = function
              | x :: more when i > 0 ->
                let a, b = take (i - 1) more in
                (x :: a, b)
              | more -> ([], more)
            in
            let mine, more = take n !rest in
            rest := more;
            if emit_phys t ~log_index g ~attempts:0 then
              match t.snoop_observer with
              | None -> ()
              | Some observe ->
                List.iter
                  (fun w ->
                    if not w.w_pre_image then
                      observe ~paddr:w.w_paddr ~vaddr:w.w_vaddr
                        ~size:w.w_size ~value:w.w_value)
                  mine)
          groups)
    segments

(* {1 The coalescing buffer}

   A small associative buffer in front of the FIFOs (the in-cache-line
   logging idea), following the {!Squash} rule: full-word writes park
   and repeated writes to the same word are absorbed in place. The
   buffer drains on commit/force/snapshot boundaries (the kernel's hard
   log sync) or when it fills. *)

let emit_coalesced t raws =
  (match t.stats with
  | Some s -> Lvm_obs.Counter.add s.s_flushed (List.length raws)
  | None -> ());
  (* Records leave the buffer now, so they are stamped now — a drain
     shares one timestamp (like a cache-line writeback), which is also
     what lets sequential buffered words collapse into runs. *)
  match t.codec with
  | Log_record.V1 ->
    let now = !(t.clock) in
    let ts = now / Cycles.timestamp_divider in
    service_batch t
      (List.map (fun w -> { w with w_arrival = now; w_timestamp = ts }) raws)
  | Log_record.V0 ->
    List.iter
      (fun w ->
        let arrival = !(t.clock) in
        admit t ~arrival;
        let arrival = Int.max arrival !(t.clock) in
        service_one t
          { w with
            w_arrival = arrival;
            w_timestamp = arrival / Cycles.timestamp_divider }
          ~attempts:0)
      raws

let flush_coalesced t =
  match t.co with
  | Some co when Squash.pending co > 0 -> emit_coalesced t (Squash.drain co)
  | Some _ | None -> ()

let discard_coalesced t = Option.iter (fun co -> ignore (Squash.drain co)) t.co

(* Admit a write arriving now and run it through the V0 pipeline,
   stamped with its arrival cycle once any overload is over. *)
let service_now t ~paddr ~vaddr ~size ~value ~pre_image =
  let arrival = !(t.clock) in
  admit t ~arrival;
  let arrival = Int.max arrival !(t.clock) in
  service t ~paddr ~vaddr ~size ~value ~arrival
    ~timestamp:(arrival / Cycles.timestamp_divider) ~pre_image ~attempts:0

let snoop_pre_image t ~paddr ~vaddr ~size ~value =
  if t.enabled && t.record_old_values then
    service_now t ~paddr ~vaddr ~size ~value ~pre_image:true

(* A new-value write arriving at [arrival], as the coalescing buffer and
   the V1 datapath take it. *)
let raw_at ~paddr ~vaddr ~size ~value arrival =
  {
    w_paddr = paddr;
    w_vaddr = vaddr;
    w_size = size;
    w_value = value;
    w_arrival = arrival;
    w_timestamp = arrival / Cycles.timestamp_divider;
    w_pre_image = false;
  }

(* Offer a write to the coalescing buffer: whether it stays there. *)
let park t co ~paddr ~vaddr ~size ~value =
  match
    Squash.write co ~addr:paddr ~size
      (raw_at ~paddr ~vaddr ~size ~value !(t.clock))
      ~flush:(emit_coalesced t)
  with
  | Squash.Absorbed ->
    (match t.stats with
    | Some s -> Lvm_obs.Counter.incr s.s_absorbed
    | None -> ());
    true
  | Squash.Parked -> true
  | Squash.Bypass -> false

let snoop t ~paddr ~vaddr ~size ~value =
  if t.enabled then begin
    let parked =
      match t.co with
      | None -> false
      | Some co -> park t co ~paddr ~vaddr ~size ~value
    in
    if not parked then
      match t.codec with
      | Log_record.V1 ->
        service_batch t [ raw_at ~paddr ~vaddr ~size ~value !(t.clock) ]
      | Log_record.V0 ->
        service_now t ~paddr ~vaddr ~size ~value ~pre_image:false
  end
