open Lvm_vm

let batches = 64
let writes = 8
let size = 8192
let off b w = ((b * writes) + w) * 8 mod (size / 2)

(* Simulated cycles for [batches] durable batches through one model. *)
let measure point =
  let k = Kernel.create ~frames:256 () in
  let sp = Kernel.create_space k in
  let run = point k sp in
  let t0 = Kernel.time k in
  for b = 0 to batches - 1 do
    run b
  done;
  Kernel.time k - t0

let unwrap what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Lvm.Lvm_error.to_string e)

let run ppf =
  let rvm_cycles =
    measure (fun k sp ->
        let r = Lvm_rvm.Rvm.make Lvm_rvm.Rvm.Config.default k sp ~size in
        fun b ->
          Lvm_rvm.Rvm.begin_txn r;
          for w = 0 to writes - 1 do
            Lvm_rvm.Rvm.set_range r ~off:(off b w) ~len:4;
            Lvm_rvm.Rvm.write_word r ~off:(off b w) ((b * 97) + w)
          done;
          Lvm_rvm.Rvm.commit r)
  in
  let rlvm_cycles =
    measure (fun k sp ->
        let r = Lvm_rvm.Rlvm.make Lvm_rvm.Rlvm.Config.default k sp ~size in
        fun b ->
          Lvm_rvm.Rlvm.begin_txn r;
          for w = 0 to writes - 1 do
            Lvm_rvm.Rlvm.write_word r ~off:(off b w) ((b * 97) + w)
          done;
          Lvm_rvm.Rlvm.commit r)
  in
  let spans = ref 0 and bytes = ref 0 in
  let fams_cycles =
    measure (fun k sp ->
        let f = unwrap "map" (Lvm_fams.map Lvm_fams.Config.default k sp ~size) in
        fun b ->
          for w = 0 to writes - 1 do
            unwrap "write" (Lvm_fams.write_word f ~off:(off b w) ((b * 97) + w))
          done;
          let rep = unwrap "snapshot" (Lvm_fams.snapshot f) in
          spans := !spans + rep.Lvm_fams.spans;
          bytes := !bytes + rep.Lvm_fams.bytes)
  in
  let per c = float_of_int c /. float_of_int batches in
  Format.fprintf ppf
    "fams (%d batches x %d writes): rvm %.0f cycles/batch; rlvm %.0f \
     cycles/batch; fams %.0f cycles/batch (%.2fx vs rvm, %.2fx vs rlvm)@."
    batches writes (per rvm_cycles) (per rlvm_cycles) (per fams_cycles)
    (per rvm_cycles /. per fams_cycles)
    (per rlvm_cycles /. per fams_cycles);
  let open Lvm_tools.Output_stream.Envelope in
  let point cycles extra =
    Obj
      ([ ("wall_cycles", Int cycles); ("cycles_per_batch", Float (per cycles)) ]
      @ extra)
  in
  { Report.blob =
      Some
        (render ~kind:"fams_comparison"
           [ ("batches", Int batches); ("writes", Int writes);
             ("size", Int size); ("rvm", point rvm_cycles []);
             ("rlvm", point rlvm_cycles []);
             ("fams",
              point fams_cycles
                [ ("spans", Int !spans); ("bytes", Int !bytes) ]);
             ("speedup_vs_rvm", Float (per rvm_cycles /. per fams_cycles));
             ("speedup_vs_rlvm", Float (per rlvm_cycles /. per fams_cycles)) ]);
    missed = [] }
