open Lvm_machine
open Lvm_vm

type params = {
  events : int;
  c : int;
  s : int;
  w : int;
  objects : int;
  checkpoint_interval : int;
}

let default_params =
  { events = 2000; c = 512; s = 64; w = 2; objects = 64;
    checkpoint_interval = 50 }

type run_result = {
  cycles : int;
  per_event : float;
  overloads : int;
  log_records : int;
  protect_faults : int;
}

let validate p =
  if p.events <= 0 || p.c < 0 || p.s <= 0 || p.w < 0 || p.objects <= 0 then
    invalid_arg "Synthetic: bad parameters";
  if p.s mod Addr.word_size <> 0 then
    invalid_arg "Synthetic: object size must be a word multiple"

(* Recycle the log roughly every this many records: stands in for CULT
   running asynchronously on another processor. *)
let recycle_records = 8192

let run ?hw p strategy =
  validate p;
  let k = Kernel.create ?hw ~frames:8192 () in
  let sp = Kernel.create_space k in
  let state_bytes = p.objects * p.s in
  let seg_size = state_bytes + Addr.word_size in
  let working = Kernel.create_segment k ~size:seg_size in
  let checkpoint = Kernel.create_segment k ~size:seg_size in
  Kernel.declare_source k ~dst:working ~src:checkpoint ~offset:0;
  let region = Kernel.create_region k working in
  let ls =
    match strategy with
    | State_saving.Lvm_based ->
      let pages =
        Addr.pages_spanning ((recycle_records + 4096) * Log_record.bytes)
      in
      let ls = Kernel.create_log_segment k ~size:(pages * Addr.page_size) in
      Kernel.set_region_log k region (Some ls);
      Some ls
    | State_saving.Copy_based | State_saving.Page_protect
    | State_saving.No_saving -> None
  in
  let base = Kernel.bind k sp region in
  let lvt_cell = base + state_bytes in
  (* copy-based save ring and page-protect shadow store *)
  let save_bytes = Addr.align_up (64 * p.s) ~alignment:Addr.page_size in
  let save = Kernel.create_segment k ~size:(max save_bytes (8 * Addr.page_size))
  in
  let save_pos = ref 0 in
  let shadow_pos = ref 0 in
  (match strategy with
  | State_saving.Page_protect ->
    Kernel.set_protect_fault_handler k
      (Some
         (fun _sp _r ~vaddr ->
           (* copy the faulting page into the shadow store *)
           let page_base = Addr.page_base (vaddr - base) in
           if !shadow_pos + Addr.page_size > Segment.size save then
             shadow_pos := 0;
           let src = Kernel.paddr_of k working ~off:page_base in
           let dst = Kernel.paddr_of k save ~off:!shadow_pos in
           shadow_pos := !shadow_pos + Addr.page_size;
           Machine.bcopy (Kernel.machine k) ~src ~dst ~len:Addr.page_size))
  | State_saving.Copy_based | State_saving.Lvm_based
  | State_saving.No_saving -> ());
  (* fault all pages in before measuring, like the paper's tests *)
  for off = 0 to (seg_size / Addr.page_size) - 1 do
    ignore (Kernel.read_word k sp (base + (off * Addr.page_size)))
  done;
  let perf = Kernel.perf k in
  let records_since_recycle = ref 0 in
  let t0 = Kernel.time k in
  for ev = 0 to p.events - 1 do
    let obj = ev mod p.objects in
    let obj_base = base + (obj * p.s) in
    (match strategy with
    | State_saving.Copy_based ->
      (* conventional rollback support: copy the object state first *)
      if !save_pos + p.s > Segment.size save then save_pos := 0;
      let src = Kernel.paddr_of k working ~off:(obj * p.s) in
      let dst = Kernel.paddr_of k save ~off:!save_pos
      in
      save_pos := !save_pos + p.s;
      Machine.bcopy (Kernel.machine k) ~src ~dst ~len:p.s
    | State_saving.Lvm_based ->
      Kernel.write_word k sp lvt_cell ev;
      records_since_recycle := !records_since_recycle + 1 + p.w;
      if !records_since_recycle >= recycle_records then begin
        let ls = Option.get ls in
        Lvm_log.truncate_suffix (Lvm_log.of_segment k ls) ~new_end:0;
        records_since_recycle := 0
      end
    | State_saving.Page_protect ->
      if ev mod p.checkpoint_interval = 0 then Kernel.protect_region k region
    | State_saving.No_saving -> ());
    Kernel.compute k p.c;
    for i = 0 to p.w - 1 do
      let word = (ev + i) mod (p.s / Addr.word_size) in
      Kernel.write_word k sp (obj_base + (word * Addr.word_size))
        ((ev lxor i) land 0xFFFF)
    done
  done;
  let cycles = Kernel.time k - t0 in
  {
    cycles;
    per_event = float_of_int cycles /. float_of_int p.events;
    overloads = perf.Perf.overloads;
    log_records = perf.Perf.log_records;
    protect_faults = perf.Perf.write_protect_faults;
  }

let speedup ?hw p =
  let copy = run ?hw p State_saving.Copy_based in
  let lvm = run ?hw p State_saving.Lvm_based in
  float_of_int copy.cycles /. float_of_int lvm.cycles
