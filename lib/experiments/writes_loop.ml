open Lvm_machine
open Lvm_vm

type result = {
  iterations : int;
  cycles : int;
  overloads : int;
  overload_cycles : int;
  bus_contention : int;
}

let seg_bytes = 256 * 1024
let log_pages = 128

(* The original single-processor loop, kept as its own code path so its
   sequence of kernel calls — and hence every calibrated number derived
   from it (Table 2/3, Figures 10-12) — is bit-identical to before the
   machine grew multiple CPUs. *)
let run_single ?hw ~iterations ~c ~unlogged ~logged () =
  let k = Kernel.create ?hw ~frames:512 () in
  let sp = Kernel.create_space k in
  (* unlogged target *)
  let useg = Kernel.create_segment k ~size:seg_bytes in
  let uregion = Kernel.create_region k useg in
  let ubase = Kernel.bind k sp uregion in
  (* logged target *)
  let lseg = Kernel.create_segment k ~size:seg_bytes in
  let lregion = Kernel.create_region k lseg in
  let ls = Kernel.create_log_segment k ~size:(log_pages * Addr.page_size) in
  Kernel.set_region_log k lregion (Some ls);
  let lbase = Kernel.bind k sp lregion in
  (* fault all pages in ahead of the measurement *)
  for p = 0 to (seg_bytes / Addr.page_size) - 1 do
    ignore (Kernel.read_word k sp (ubase + (p * Addr.page_size)));
    ignore (Kernel.read_word k sp (lbase + (p * Addr.page_size)))
  done;
  Logger.flush (Machine.logger (Kernel.machine k));
  let perf = Kernel.perf k in
  Perf.reset perf;
  let upos = ref 0 and lpos = ref 0 in
  let recycle_at = (log_pages - 8) * Addr.page_size in
  let records = ref 0 in
  let t0 = Kernel.time k in
  for i = 0 to iterations - 1 do
    Kernel.compute k c;
    for _ = 1 to unlogged do
      Kernel.write_word k sp (ubase + !upos) i;
      upos := (!upos + Addr.word_size) mod seg_bytes
    done;
    for _ = 1 to logged do
      Kernel.write_word k sp (lbase + !lpos) i;
      lpos := (!lpos + Addr.word_size) mod seg_bytes;
      incr records
    done;
    if !records * Log_record.bytes >= recycle_at then begin
      Lvm_log.truncate_suffix (Lvm_log.of_segment k ls) ~new_end:0;
      records := 0
    end
  done;
  let cycles = Kernel.time k - t0 in
  {
    iterations;
    cycles;
    overloads = perf.Perf.overloads;
    overload_cycles = perf.Perf.overload_cycles;
    bus_contention = 0;
  }

(* Per-CPU loop state for the multi-processor run. *)
type cpu_loop = {
  sp : Address_space.t;
  ubase : int;
  lbase : int;
  ls : Segment.t;
  mutable upos : int;
  mutable lpos : int;
  mutable records : int;
  mutable done_iters : int;
}

(* N processors each run the same per-CPU workload (so the per-CPU write
   rate matches the single-CPU run at the same [c]) against their own
   segments and their own logs, interleaved one iteration at a time by
   the deterministic scheduler. They share the bus and the logger:
   elapsed time is the latest CPU clock, and the contention the sweep
   reports is the cycles CPUs spent waiting behind each other's bus
   transactions. *)
let run_multi ?hw ~cpus ~iterations ~c ~unlogged ~logged () =
  let k = Kernel.create ?hw ~frames:(512 * cpus) ~cpus () in
  let machine = Kernel.machine k in
  let states =
    Array.init cpus (fun cpu ->
        Kernel.set_cpu k cpu;
        let sp = Kernel.create_space k in
        let useg = Kernel.create_segment k ~size:seg_bytes in
        let uregion = Kernel.create_region k useg in
        let ubase = Kernel.bind k sp uregion in
        let lseg = Kernel.create_segment k ~size:seg_bytes in
        let lregion = Kernel.create_region k lseg in
        let ls =
          Kernel.create_log_segment k ~size:(log_pages * Addr.page_size)
        in
        Kernel.set_region_log k lregion (Some ls);
        let lbase = Kernel.bind k sp lregion in
        for p = 0 to (seg_bytes / Addr.page_size) - 1 do
          ignore (Kernel.read_word k sp (ubase + (p * Addr.page_size)));
          ignore (Kernel.read_word k sp (lbase + (p * Addr.page_size)))
        done;
        { sp; ubase; lbase; ls; upos = 0; lpos = 0; records = 0;
          done_iters = 0 })
  in
  Kernel.set_cpu k 0;
  Logger.flush (Machine.logger machine);
  let perf = Kernel.perf k in
  Perf.reset perf;
  let contention0 = Machine.bus_contention_cycles machine in
  let t0 = Array.init cpus (fun cpu -> Kernel.cpu_time k ~cpu) in
  let recycle_at = (log_pages - 8) * Addr.page_size in
  let one_iteration st =
    let i = st.done_iters in
    Kernel.compute k c;
    for _ = 1 to unlogged do
      Kernel.write_word k st.sp (st.ubase + st.upos) i;
      st.upos <- (st.upos + Addr.word_size) mod seg_bytes
    done;
    for _ = 1 to logged do
      Kernel.write_word k st.sp (st.lbase + st.lpos) i;
      st.lpos <- (st.lpos + Addr.word_size) mod seg_bytes;
      st.records <- st.records + 1
    done;
    if st.records * Log_record.bytes >= recycle_at then begin
      Lvm_log.truncate_suffix (Lvm_log.of_segment k st.ls) ~new_end:0;
      st.records <- 0
    end;
    st.done_iters <- i + 1;
    st.done_iters < iterations
  in
  Kernel.run_cpus k ~tasks:(Array.map (fun st () -> one_iteration st) states);
  let cycles =
    let worst = ref 0 in
    for cpu = 0 to cpus - 1 do
      worst := max !worst (Kernel.cpu_time k ~cpu - t0.(cpu))
    done;
    !worst
  in
  {
    iterations;
    cycles;
    overloads = perf.Perf.overloads;
    overload_cycles = perf.Perf.overload_cycles;
    bus_contention = Machine.bus_contention_cycles machine - contention0;
  }

let run ?hw ?(cpus = 1) ~iterations ~c ~unlogged ~logged () =
  if cpus <= 0 then invalid_arg "Writes_loop.run: cpus must be positive";
  if cpus = 1 then run_single ?hw ~iterations ~c ~unlogged ~logged ()
  else run_multi ?hw ~cpus ~iterations ~c ~unlogged ~logged ()

let per_write r ~c ~writes_per_iter =
  float_of_int (r.cycles - (c * r.iterations))
  /. float_of_int (r.iterations * writes_per_iter)

let per_iteration r = float_of_int r.cycles /. float_of_int r.iterations
