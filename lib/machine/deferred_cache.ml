type page_state = {
  src_addr : int; (* source address of the page's first line *)
  modified : Bytes.t; (* one byte per line: 0 = from source, 1 = modified *)
  mutable dirty : bool;
}

(* The state of a page that is not a deferred-copy destination. *)
let unmapped = { src_addr = 0; modified = Bytes.empty; dirty = false }

type t = {
  mutable pages : page_state array;
      (* dst frame number -> state, or [unmapped]; it grows to the highest
         frame mapped, not to the size of memory *)
  mem : Physmem.t;
  perf : Perf.t;
  dirty_hist : Lvm_obs.Histogram.t;
}

let create ?obs mem perf =
  let obs = match obs with Some o -> o | None -> Lvm_obs.Ctx.create () in
  {
    pages = [||];
    mem;
    perf;
    dirty_hist =
      Lvm_obs.Ctx.histogram obs ~name:"dc.dirty_lines"
        ~bounds:(Lvm_obs.Histogram.pow2_bounds ~max_exp:8);
  }

(* Pages past the end of the table are not mapped. *)
let state t pn =
  if pn >= 0 && pn < Array.length t.pages then t.pages.(pn) else unmapped

let map t ~dst_page ~src_addr =
  if src_addr land (Addr.line_size - 1) <> 0 then
    invalid_arg "Deferred_cache.map: source address must be line-aligned";
  if dst_page < 0 || dst_page >= Physmem.frames t.mem then
    invalid_arg "Deferred_cache.map: destination page out of range";
  let n = Array.length t.pages in
  if dst_page >= n then begin
    let pages =
      Array.make (min (Physmem.frames t.mem) (max (dst_page + 1) (2 * n)))
        unmapped
    in
    Array.blit t.pages 0 pages 0 n;
    t.pages <- pages
  end;
  t.pages.(dst_page) <-
    { src_addr; modified = Bytes.make Addr.lines_per_page '\000';
      dirty = false }

let unmap t ~dst_page =
  if dst_page >= 0 && dst_page < Array.length t.pages then
    t.pages.(dst_page) <- unmapped

let is_mapped t ~dst_page = state t dst_page != unmapped
let page_dirty t ~dst_page = (state t dst_page).dirty

let line_index paddr = Addr.line_number paddr land (Addr.lines_per_page - 1)

let resolve_read t ~paddr =
  let st = state t (Addr.page_number paddr) in
  if st == unmapped then paddr
  else
    let li = line_index paddr in
    if Bytes.get st.modified li <> '\000' then paddr
    else st.src_addr + (li * Addr.line_size) + (paddr land (Addr.line_size - 1))

let note_write t ~paddr =
  let st = state t (Addr.page_number paddr) in
  if st != unmapped then begin
    let li = line_index paddr in
    if Bytes.get st.modified li = '\000' then begin
      (* First write to this line: load it from the source so partial
         writes merge with the checkpointed bytes. *)
      let dst_line = Addr.line_base paddr in
      let src_line = st.src_addr + (li * Addr.line_size) in
      Physmem.blit t.mem ~src:src_line ~dst:dst_line ~len:Addr.line_size;
      Bytes.set st.modified li '\001';
      st.dirty <- true
    end
  end

let reset_page t ~dst_page ~was_dirty =
  t.perf.Perf.dc_pages_scanned <- t.perf.Perf.dc_pages_scanned + 1;
  let st = state t dst_page in
  was_dirty := st.dirty;
  if st.dirty then begin
    t.perf.Perf.dc_pages_dirty <- t.perf.Perf.dc_pages_dirty + 1;
    let dirty_lines = ref 0 in
    Bytes.iter
      (fun c -> if c <> '\000' then incr dirty_lines)
      st.modified;
    Lvm_obs.Histogram.observe t.dirty_hist !dirty_lines;
    Bytes.fill st.modified 0 Addr.lines_per_page '\000';
    st.dirty <- false;
    Cycles.dc_reset_per_page
    + (Addr.lines_per_page * Cycles.dc_reset_per_dirty_line)
  end
  else Cycles.dc_reset_per_page

let modified_lines t ~dst_page =
  let st = state t dst_page in
  let lines = ref [] in
  for li = Bytes.length st.modified - 1 downto 0 do
    if Bytes.get st.modified li <> '\000' then lines := li :: !lines
  done;
  !lines

let mapped_pages t =
  let pages = ref [] in
  for pn = Array.length t.pages - 1 downto 0 do
    if t.pages.(pn) != unmapped then pages := pn :: !pages
  done;
  !pages
