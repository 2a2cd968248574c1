type write_mode = Write_back | Write_through

(* Each processor board carries its own clock and private first-level
   cache; everything else — physical memory, the bus, the second-level
   deferred-copy cache and the logger — is shared (Section 4.1's ParaDiGM
   configuration). The machine is still sequential: one CPU is "active"
   at a time and the deterministic scheduler above interleaves them. *)
type cpu_state = { clk : int ref; l1 : L1_cache.t }

type t = {
  mem : Physmem.t;
  bus : Bus.t;
  cpu : cpu_state array;
  mutable cur : int;
  deferred : Deferred_cache.t;
  logger : Logger.t;
  perf : Perf.t;
  obs : Lvm_obs.Ctx.t;
  snoop_invalidations : Lvm_obs.Counter.counter option;
    (* registered only on multi-CPU machines, so single-CPU snapshots are
       unchanged *)
  mutable fault : Lvm_fault.Plan.t option;
}

let create ?obs ?(hw = Logger.Prototype) ?record_old_values ?codec
    ?coalesce_depth ?(frames = 4096) ?(log_entries = 64) ?(cpus = 1) () =
  if cpus <= 0 then invalid_arg "Machine.create: cpus must be positive";
  let obs = match obs with Some o -> o | None -> Lvm_obs.Ctx.create () in
  let perf = Perf.create () in
  Lvm_obs.Ctx.add_provider obs (fun () -> Perf.to_alist perf);
  let mem = Physmem.create ~frames in
  let bus = Bus.create ~obs ~cpus perf in
  (* component creation order fixes observability registration order;
     keep it as it always was (logger, deferred cache, then L1s) so
     single-CPU snapshots stay byte-identical *)
  let clocks = Array.init cpus (fun _ -> ref 0) in
  let logger =
    Logger.create ~obs ~hw ?record_old_values ?codec ?coalesce_depth
      ~log_entries ~clock:clocks.(0) mem bus perf
  in
  let deferred = Deferred_cache.create ~obs mem perf in
  let cpu =
    Array.init cpus (fun i ->
        { clk = clocks.(i); l1 = L1_cache.create ~obs bus perf })
  in
  let t =
    {
      mem;
      bus;
      cpu;
      cur = 0;
      deferred;
      logger;
      perf;
      obs;
      snoop_invalidations =
        (if cpus > 1 then Some (Lvm_obs.Ctx.counter obs "l1.snoop_invalidations")
         else None);
      fault = None;
    }
  in
  if cpus > 1 then
    Lvm_obs.Ctx.add_provider obs (fun () ->
        ("bus.contention_cycles", Bus.contention_cycles bus)
        :: List.concat
             (List.init cpus (fun i ->
                  [
                    (Printf.sprintf "cpu.cycles{cpu=%d}" i, !(cpu.(i).clk));
                    ( Printf.sprintf "cpu.bus_wait_cycles{cpu=%d}" i,
                      Bus.wait_cycles bus ~cpu:i );
                    ( Printf.sprintf "cpu.bus_grants{cpu=%d}" i,
                      Bus.grants bus ~cpu:i );
                  ])));
  t

let mem t = t.mem
let logger t = t.logger
let deferred t = t.deferred
let l1 t = t.cpu.(t.cur).l1
let bus t = t.bus
let perf t = t.perf
let obs t = t.obs
let snapshot t = Lvm_obs.Ctx.snapshot t.obs
let clock t = t.cpu.(t.cur).clk
let time t = !(t.cpu.(t.cur).clk)

let cpus t = Array.length t.cpu
let current_cpu t = t.cur

let set_cpu t cpu =
  if cpu < 0 || cpu >= Array.length t.cpu then
    invalid_arg "Machine.set_cpu: bad cpu";
  if cpu <> t.cur then begin
    t.cur <- cpu;
    Bus.set_active t.bus cpu;
    Logger.set_clock t.logger t.cpu.(cpu).clk
  end

let cpu_time t ~cpu =
  if cpu < 0 || cpu >= Array.length t.cpu then
    invalid_arg "Machine.cpu_time: bad cpu";
  !(t.cpu.(cpu).clk)

let max_time t =
  Array.fold_left (fun acc c -> max acc !(c.clk)) 0 t.cpu

let bus_contention_cycles t = Bus.contention_cycles t.bus

let l1_invalidate_page t ~page =
  Array.iter (fun c -> L1_cache.invalidate_page c.l1 ~page) t.cpu

let set_fault_plan t plan =
  t.fault <- plan;
  Logger.set_fault_plan t.logger plan;
  match plan with
  | Some p -> Lvm_fault.Plan.set_obs p t.obs
  | None -> ()

let fault_plan t = t.fault

let fault_check t ~site =
  match t.fault with
  | None -> None
  | Some plan -> Lvm_fault.Plan.check_crash plan ~site ~cycle:(time t)

(* Instruction-stream crash boundary: every compute/read/write consults
   the plan, so [Plan.crash_at n] dies at the first boundary at or after
   cycle [n]. Only [Crash] is meaningful at the Cpu site. Inlined: it
   precedes every charged access, and with no plan armed it is one
   match. *)
let[@inline] cpu_boundary t =
  match t.fault with
  | None -> ()
  | Some _ -> ignore (fault_check t ~site:Lvm_fault.Fault.Cpu)

let compute t cycles =
  if cycles < 0 then invalid_arg "Machine.compute: negative cycles";
  let clock = t.cpu.(t.cur).clk in
  clock := !clock + cycles;
  cpu_boundary t

(* One crash boundary per word, so a crash point may fall between two
   words of a record. A further word of the line the first word brought
   in is one more hit: nothing touches the cache between two words, and
   the first read ended any write run. *)
let charge_read t ~paddr ~words =
  let c = t.cpu.(t.cur) and perf = t.perf in
  cpu_boundary t;
  c.clk := L1_cache.read c.l1 ~now:!(c.clk) ~paddr;
  let rest_of_line = Addr.line_size - (paddr land (Addr.line_size - 1)) in
  for w = 1 to words - 1 do
    cpu_boundary t;
    let at = w * Addr.word_size in
    if at < rest_of_line then begin
      perf.Perf.l1_hits <- perf.Perf.l1_hits + 1;
      c.clk := !(c.clk) + Cycles.l1_hit
    end
    else c.clk := L1_cache.read c.l1 ~now:!(c.clk) ~paddr:(paddr + at)
  done

let read t ~paddr ~size =
  charge_read t ~paddr ~words:1;
  let actual = Deferred_cache.resolve_read t.deferred ~paddr in
  Physmem.read_sized t.mem actual ~size

(* Write-invalidate snoop (Section 2.6): a write-through appears on the
   bus, so every other CPU's cache drops any stale copy of the line. The
   snoop rides the bus transaction already charged to the writer; it
   costs the other processors nothing. *)
let snoop_invalidate t ~paddr =
  match t.snoop_invalidations with
  | None -> ()
  | Some counter ->
    for i = 0 to Array.length t.cpu - 1 do
      if i <> t.cur && L1_cache.invalidate_line t.cpu.(i).l1 ~paddr then
        Lvm_obs.Counter.incr counter
    done

let write t ~paddr ?vaddr ~size ~mode ~logged value =
  cpu_boundary t;
  let vaddr = match vaddr with Some v -> v | None -> paddr in
  (match (mode, logged) with
  | Write_back, true ->
    invalid_arg "Machine.write: logged pages must be write-through"
  | (Write_back | Write_through), _ -> ());
  let c = t.cpu.(t.cur) in
  (* A logged write issued while the logger is still draining earlier
     records pays bus-arbitration interference: this is what makes bursts
     of logged writes cost more per write (Figure 10). *)
  if logged && Logger.busy t.logger then
    c.clk := !(c.clk) + Cycles.wt_logger_interference;
  (* pre-image capture (Section 4.6 option): the old value is available
     for free during the store on the hardware side *)
  let old_value =
    if logged && Logger.records_old_values t.logger then
      Some (Physmem.read_sized t.mem paddr ~size)
    else None
  in
  (match mode with
  | Write_through ->
    c.clk := L1_cache.write_through c.l1 ~now:!(c.clk) ~paddr;
    snoop_invalidate t ~paddr
  | Write_back ->
    c.clk := L1_cache.write_back_mode_write c.l1 ~now:!(c.clk) ~paddr);
  Deferred_cache.note_write t.deferred ~paddr;
  Physmem.write_sized t.mem paddr ~size value;
  if logged then Logger.snoop ?old_value t.logger ~paddr ~vaddr ~size ~value

let bcopy t ~src ~dst ~len =
  if len < 0 || len mod Addr.word_size <> 0 then
    invalid_arg "Machine.bcopy: length must be a multiple of the word size";
  let words = len / Addr.word_size in
  compute t (Cycles.bcopy_base + (words * Cycles.bcopy_per_word));
  for i = 0 to words - 1 do
    let s = src + (i * Addr.word_size) and d = dst + (i * Addr.word_size) in
    let actual = Deferred_cache.resolve_read t.deferred ~paddr:s in
    let v = Physmem.read_word t.mem actual in
    Deferred_cache.note_write t.deferred ~paddr:d;
    Physmem.write_word t.mem d v
  done

let dc_map t ~dst_page ~src_addr =
  Deferred_cache.map t.deferred ~dst_page ~src_addr

let dc_unmap t ~dst_page = Deferred_cache.unmap t.deferred ~dst_page

let dc_reset_page t ~dst_page =
  let was_dirty = ref false in
  let cost = Deferred_cache.reset_page t.deferred ~dst_page ~was_dirty in
  if !was_dirty then l1_invalidate_page t ~page:dst_page;
  compute t cost

let dc_page_dirty t ~dst_page = Deferred_cache.page_dirty t.deferred ~dst_page

let read_raw t ~paddr ~size = Physmem.read_sized t.mem paddr ~size

let write_raw t ~paddr ~size value =
  Deferred_cache.note_write t.deferred ~paddr;
  Physmem.write_sized t.mem paddr ~size value
