open Lvm_sim

type row = {
  schedulers : int;
  strategy : State_saving.t;
  elapsed_cycles : int;
  committed : int;
  rollbacks : int;
  matches_sequential : bool;
}

let seed = 23
let population = 16
let locality_pct = 90
let objects = 24
let object_words = 512
let end_time = 600
let scheduler_counts = [ 1; 2; 4 ]

let app () =
  Phold.app ~objects ~object_words ~locality_pct ~seed ~compute:300 ()

let engine ~n_schedulers ~strategy =
  let e = Timewarp.create ~n_schedulers ~strategy ~app:(app ()) () in
  Phold.inject_population e ~objects ~population ~seed;
  e

let conservative_engine ~n_schedulers =
  let e = Conservative.create ~n_schedulers ~app:(app ()) () in
  List.iter
    (fun (time, dst, payload) -> Conservative.inject e ~time ~dst ~payload)
    (Phold.population ~objects ~population ~seed);
  e

let measure () =
  let reference = engine ~n_schedulers:1 ~strategy:State_saving.Lvm_based in
  ignore (Timewarp.run reference ~end_time);
  let reference_state = Timewarp.state_vector reference in
  List.concat_map
    (fun schedulers ->
      let optimistic =
        List.map
          (fun strategy ->
            let e = engine ~n_schedulers:schedulers ~strategy in
            let r = Timewarp.run e ~end_time in
            {
              schedulers;
              strategy;
              elapsed_cycles = r.Timewarp.elapsed_cycles;
              committed = r.Timewarp.total_events_committed;
              rollbacks = r.Timewarp.total_rollbacks;
              matches_sequential =
                Timewarp.state_vector e = reference_state;
            })
          [ State_saving.Copy_based; State_saving.Lvm_based ]
      in
      let conservative =
        let e = conservative_engine ~n_schedulers:schedulers in
        let r = Conservative.run e ~end_time in
        {
          schedulers;
          strategy = State_saving.No_saving;
          elapsed_cycles = r.Conservative.elapsed_cycles;
          committed = r.Conservative.events_processed;
          rollbacks = 0;
          matches_sequential = Conservative.state_vector e = reference_state;
        }
      in
      conservative :: optimistic)
    scheduler_counts

let run ppf =
  Report.section ppf
    "Ablation D: TimeWarp End-to-End, LVM vs Copy-based State Saving";
  let rows = measure () in
  Report.table ppf
    ~header:
      [ "schedulers"; "strategy"; "elapsed (cycles)"; "committed";
        "rollbacks"; "matches sequential" ]
    (List.map
       (fun r ->
         [
           Report.fi r.schedulers;
           State_saving.to_string r.strategy;
           Report.fi r.elapsed_cycles;
           Report.fi r.committed;
           Report.fi r.rollbacks;
           string_of_bool r.matches_sequential;
         ])
       rows);
  Report.note ppf
    "PHOLD with 2 KB objects and 90% locality; every configuration \
     commits the identical sequential execution. 'no-saving' is the \
     conservative barrier-synchronous engine (idles at every step, never \
     rolls back); LVM removes the per-event state copies from the \
     optimistic engine's critical path, and its rollback cost is paid \
     only by schedulers running ahead (Section 2.4).";
  let at4 = List.filter (fun r -> r.schedulers = 4) rows in
  let row s = List.find (fun r -> r.strategy = s) at4 in
  let conservative = row State_saving.No_saving
  and copy = row State_saving.Copy_based
  and lvm = row State_saving.Lvm_based in
  Report.claims
    (List.map
       (fun r ->
         ( r.matches_sequential,
           State_saving.to_string r.strategy
           ^ " at 4 schedulers matches the sequential run" ))
       at4
    @ [
        ( lvm.elapsed_cycles < conservative.elapsed_cycles,
          Printf.sprintf
            "lvm-optimistic beats conservative at 4 schedulers (measured %d \
             vs %d cycles)" lvm.elapsed_cycles conservative.elapsed_cycles );
        ( copy.elapsed_cycles > conservative.elapsed_cycles,
          Printf.sprintf
            "copy-optimistic loses to conservative at 4 schedulers \
             (measured %d vs %d cycles)" copy.elapsed_cycles
            conservative.elapsed_cycles );
        ( copy.committed = lvm.committed,
          Printf.sprintf
            "copy and lvm commit the same events (measured %d vs %d)"
            copy.committed lvm.committed );
      ])
