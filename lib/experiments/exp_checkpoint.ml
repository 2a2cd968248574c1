open Lvm_machine
open Lvm_vm

type point = {
  dirty_pages : int;
  bcopy_cycles : int;
  dc_mutate_cycles : int;
  dc_restore_cycles : int;
  ppc_mutate_cycles : int;
  ppc_restore_cycles : int;
}

let one_cycle ~pages ~dirty =
  let size = pages * Addr.page_size in
  (* deferred-copy pair *)
  let k = Kernel.create ~frames:(4 * pages + 64) () in
  let sp = Kernel.create_space k in
  let working = Kernel.create_segment k ~size in
  let ckpt = Kernel.create_segment k ~size in
  Kernel.declare_source k ~dst:working ~src:ckpt ~offset:0;
  let region = Kernel.create_region k working in
  let base = Kernel.bind k sp region in
  (* fault all pages in so the measured mutation is pure write cost *)
  for p = 0 to pages - 1 do
    ignore (Kernel.read_word k sp (base + (p * Addr.page_size)))
  done;
  let t0 = Kernel.time k in
  for p = 0 to dirty - 1 do
    Kernel.write_word k sp (base + (p * Addr.page_size)) p
  done;
  let dc_mutate_cycles = Kernel.time k - t0 in
  let t1 = Kernel.time k in
  Kernel.reset_deferred_copy k sp ~start:base ~len:size;
  let dc_restore_cycles = Kernel.time k - t1 in
  (* the flat alternative: copy the whole checkpoint back *)
  let t2 = Kernel.time k in
  Machine.bcopy (Kernel.machine k)
    ~src:(Kernel.paddr_of k ckpt ~off:0)
    ~dst:(Kernel.paddr_of k working ~off:0)
    ~len:size;
  let bcopy_cycles = Kernel.time k - t2 in
  (* Li/Appel page-protect on a fresh kernel *)
  let k2 = Kernel.create ~frames:(4 * pages + 64) () in
  let sp2 = Kernel.create_space k2 in
  let seg2 = Kernel.create_segment k2 ~size in
  let region2 = Kernel.create_region k2 seg2 in
  let base2 = Kernel.bind k2 sp2 region2 in
  let mgr = Protect_checkpoint.manager k2 in
  let c = Protect_checkpoint.attach mgr ~space:sp2 region2 in
  Protect_checkpoint.checkpoint c;
  let t3 = Kernel.time k2 in
  for p = 0 to dirty - 1 do
    Kernel.write_word k2 sp2 (base2 + (p * Addr.page_size)) p
  done;
  let ppc_mutate_cycles = Kernel.time k2 - t3 in
  let t4 = Kernel.time k2 in
  Protect_checkpoint.restore c;
  let ppc_restore_cycles = Kernel.time k2 - t4 in
  {
    dirty_pages = dirty;
    bcopy_cycles;
    dc_mutate_cycles;
    dc_restore_cycles;
    ppc_mutate_cycles;
    ppc_restore_cycles;
  }

let measure () =
  List.map (fun dirty -> one_cycle ~pages:32 ~dirty) [ 1; 2; 4; 8; 16; 32 ]

let run ppf =
  Report.section ppf
    "Ablation E: Rollback Primitives (bcopy vs deferred copy vs \
     page-protect)";
  let points = measure () in
  Report.table ppf
    ~header:
      [ "dirty pages (of 32)"; "bcopy restore"; "dc mutate"; "dc restore";
        "li/appel mutate"; "li/appel restore" ]
    (List.map
       (fun p ->
         [
           Report.fi p.dirty_pages;
           Report.fi p.bcopy_cycles;
           Report.fi p.dc_mutate_cycles;
           Report.fi p.dc_restore_cycles;
           Report.fi p.ppc_mutate_cycles;
           Report.fi p.ppc_restore_cycles;
         ])
       points);
  Report.note ppf
    "page-protect moves the cost onto the mutator (3000-cycle faults plus \
     whole-page copies per first write) and restores by remapping; \
     deferred copy keeps the mutator free and pays a per-dirty-page sweep \
     at rollback; bcopy is flat and loses except when nearly everything \
     is dirty (Figure 9).";
  let at dirty = List.find (fun p -> p.dirty_pages = dirty) points in
  let one = at 1 and all = at 32 in
  Report.claims
    [
      ( one.bcopy_cycles = all.bcopy_cycles,
        Printf.sprintf "bcopy independent of dirty pages (measured %d vs %d)"
          one.bcopy_cycles all.bcopy_cycles );
      ( all.dc_restore_cycles > 16 * one.dc_restore_cycles,
        Printf.sprintf
          "deferred-copy restore grows > 16x from 1 to 32 dirty (measured %d \
           -> %d)" one.dc_restore_cycles all.dc_restore_cycles );
      ( one.dc_restore_cycles < one.bcopy_cycles,
        Printf.sprintf
          "deferred copy beats bcopy at 1 dirty page (measured %d vs %d)"
          one.dc_restore_cycles one.bcopy_cycles );
      ( all.dc_restore_cycles > all.bcopy_cycles,
        Printf.sprintf
          "bcopy beats deferred copy at 32 dirty pages (measured %d vs %d)"
          all.bcopy_cycles all.dc_restore_cycles );
      ( all.ppc_restore_cycles < 2000,
        Printf.sprintf "li/appel restore < 2000 cycles (measured %d)"
          all.ppc_restore_cycles );
      ( one.ppc_mutate_cycles > 100 * one.dc_mutate_cycles,
        Printf.sprintf
          "li/appel mutator pays > 100x deferred copy's (measured %d vs %d)"
          one.ppc_mutate_cycles one.dc_mutate_cycles );
    ]
