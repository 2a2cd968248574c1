module Repl = Lvm_repl

let txns = 64
let replicas = 2

let commit ?(gap = 3) cl j =
  let keys = Repl.keys cl in
  (match
     Repl.exec cl
       ~writes:[ (j mod keys, (j * 100) + 1);
                 (((j * 5) + 2) mod keys, (j * 100) + 2) ]
   with
  | Ok () -> ()
  | Error e -> failwith (Lvm.Lvm_error.to_string e));
  Repl.step ~ticks:gap cl

let run ppf =
  (* failover: kill mid-stream, promote, finish on the new primary *)
  let cl = Repl.create { Repl.Config.default with replicas } in
  for j = 0 to (txns / 2) - 1 do
    commit cl j
  done;
  Repl.kill_primary cl;
  Repl.step ~ticks:4 cl;
  let promo = Repl.promote cl in
  let t0 = Repl.now cl in
  for j = txns / 2 to txns - 1 do
    commit cl j
  done;
  if not (Repl.sync cl) then failwith "repl: failover did not converge";
  let reconverge_ticks = Repl.now cl - t0 in
  (* catch-up: partition standby 0, commit without it, heal, drain *)
  let drop_everything =
    Lvm_fault.Plan.create
      [ { Lvm_fault.Plan.site = Lvm_fault.Fault.Net_frame;
          trigger = Lvm_fault.Plan.Every 1; fault = Lvm_fault.Fault.Net_drop };
        { Lvm_fault.Plan.site = Lvm_fault.Fault.Net_ack;
          trigger = Lvm_fault.Plan.Every 1; fault = Lvm_fault.Fault.Net_drop }
      ]
  in
  let cl2 = Repl.create { Repl.Config.default with replicas } in
  for j = 0 to (txns / 2) - 1 do
    commit cl2 j
  done;
  if not (Repl.sync cl2) then failwith "repl: baseline did not converge";
  Repl.set_net_plan cl2 (Some drop_everything);
  for j = txns / 2 to txns - 1 do
    commit ~gap:1 cl2 j
  done;
  let behind = Repl.stream_end cl2 - Repl.replica_applied cl2 0 in
  Repl.set_net_plan cl2 None;
  let t1 = Repl.now cl2 in
  if not (Repl.sync cl2) then failwith "repl: catch-up did not converge";
  let catchup_ticks = max 1 (Repl.now cl2 - t1) in
  let throughput = float_of_int behind /. float_of_int catchup_ticks in
  Format.fprintf ppf
    "repl (%d txns, %d replicas): failover %d ticks (r%d serving at epoch \
     %d), reconverge %d ticks; catch-up %d bytes in %d ticks (%.1f \
     bytes/tick)@."
    txns replicas promo.Repl.failover_ticks promo.Repl.new_primary
    promo.Repl.new_epoch reconverge_ticks behind catchup_ticks throughput;
  let open Lvm_tools.Output_stream.Envelope in
  { Report.blob =
      Some
        (render ~kind:"repl"
           [ ("txns", Int txns); ("replicas", Int replicas);
             ("failover",
              Obj
                [ ("new_primary", Int promo.Repl.new_primary);
                  ("new_epoch", Int promo.Repl.new_epoch);
                  ("applied_bytes", Int promo.Repl.applied_bytes);
                  ("folded_bytes", Int promo.Repl.folded_bytes);
                  ("failover_ticks", Int promo.Repl.failover_ticks);
                  ("reconverge_ticks", Int reconverge_ticks) ]);
             ("catchup",
              Obj
                [ ("behind_bytes", Int behind); ("ticks", Int catchup_ticks);
                  ("bytes_per_tick", Float throughput) ]) ]);
    missed = [] }
