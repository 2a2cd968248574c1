type t = {
  tags : int array; (* -1 = invalid, else line_number *)
  dirty : bool array;
  mask : int;
  bus : Bus.t;
  perf : Perf.t;
  run_hist : Lvm_obs.Histogram.t;
  mutable write_run : int; (* consecutive write-throughs so far *)
}

let size_bytes = 8 * 1024
let n_lines = size_bytes / Addr.line_size

let create ?obs bus perf =
  let obs = match obs with Some o -> o | None -> Lvm_obs.Ctx.create () in
  { tags = Array.make n_lines (-1); dirty = Array.make n_lines false;
    mask = n_lines - 1; bus; perf;
    run_hist =
      Lvm_obs.Ctx.histogram obs ~name:"l1.write_run"
        ~bounds:(Lvm_obs.Histogram.pow2_bounds ~max_exp:12);
    write_run = 0 }

(* A run of consecutive write-throughs ends at any other access; its
   length is what the overload analysis (Figure 11) cares about. *)
let end_write_run t =
  if t.write_run > 0 then begin
    Lvm_obs.Histogram.observe t.run_hist t.write_run;
    t.write_run <- 0
  end

let lines _ = n_lines
let slot t paddr = Addr.line_number paddr land t.mask

(* A CPU bus transaction: [total] CPU cycles of which the last [bus]
   cycles occupy the bus; the CPU stalls further if the bus is busy. *)
let bus_op t ~now ~total ~bus =
  let request = now + (total - bus) in
  let finish = Bus.access t.bus ~track:Bus.Cpu ~now:request ~cycles:bus in
  let natural = now + total in
  if finish > natural then finish else natural

let evict t ~now idx =
  if t.tags.(idx) >= 0 && t.dirty.(idx) then begin
    t.perf.Perf.l1_write_backs <- t.perf.Perf.l1_write_backs + 1;
    t.dirty.(idx) <- false;
    bus_op t ~now ~total:Cycles.cache_block_write_total
      ~bus:Cycles.cache_block_write_bus
  end
  else now

let fill t ~now idx line =
  let now = evict t ~now idx in
  t.tags.(idx) <- line;
  t.dirty.(idx) <- false;
  bus_op t ~now ~total:Cycles.l1_fill_total ~bus:Cycles.l1_fill_bus

let read t ~now ~paddr =
  end_write_run t;
  let line = Addr.line_number paddr in
  let idx = line land t.mask in
  if t.tags.(idx) = line then begin
    t.perf.Perf.l1_hits <- t.perf.Perf.l1_hits + 1;
    now + Cycles.l1_hit
  end
  else begin
    t.perf.Perf.l1_misses <- t.perf.Perf.l1_misses + 1;
    fill t ~now idx line + Cycles.l1_hit
  end

let write_back_mode_write t ~now ~paddr =
  end_write_run t;
  let line = Addr.line_number paddr in
  let idx = line land t.mask in
  if t.tags.(idx) = line then begin
    t.perf.Perf.l1_hits <- t.perf.Perf.l1_hits + 1;
    t.dirty.(idx) <- true;
    now + Cycles.l1_hit
  end
  else begin
    t.perf.Perf.l1_misses <- t.perf.Perf.l1_misses + 1;
    let now = fill t ~now idx line in
    t.dirty.(idx) <- true;
    now + Cycles.l1_hit
  end

let write_through t ~now ~paddr =
  ignore (slot t paddr);
  t.write_run <- t.write_run + 1;
  t.perf.Perf.write_throughs <- t.perf.Perf.write_throughs + 1;
  (* The line, if resident, is updated in place; it stays clean because the
     write also goes to memory. No allocation on miss. *)
  bus_op t ~now ~total:Cycles.word_write_through_total
    ~bus:Cycles.word_write_through_bus

let invalidate_page t ~page =
  let first = page * Addr.lines_per_page in
  let last = first + Addr.lines_per_page - 1 in
  for line = first to last do
    let idx = line land t.mask in
    if t.tags.(idx) = line then begin
      t.tags.(idx) <- -1;
      t.dirty.(idx) <- false
    end
  done

let invalidate_line t ~paddr =
  let idx = slot t paddr in
  let line = Addr.line_number paddr in
  if t.tags.(idx) = line then begin
    t.tags.(idx) <- -1;
    t.dirty.(idx) <- false;
    true
  end
  else false

let invalidate_all t =
  Array.fill t.tags 0 n_lines (-1);
  Array.fill t.dirty 0 n_lines false

let contains_line t ~paddr = t.tags.(slot t paddr) = Addr.line_number paddr
