(* Band tests over the reproduction experiments: each paper table/figure
   claim is asserted against the measured values (with quick sweep sizes,
   so these run in seconds while still checking the published shapes). *)

open Lvm_experiments

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let in_band ?(tolerance = 0.10) ~paper measured =
  let lo = paper *. (1. -. tolerance) and hi = paper *. (1. +. tolerance) in
  measured >= lo && measured <= hi

(* {1 Table 2} *)

let test_table2_exact () =
  match Exp_table2.measure () with
  | [ wt; block; dma ] ->
    check "write-through total" 6 wt.Exp_table2.total;
    check "write-through bus" 5 wt.Exp_table2.bus;
    check "block write total" 9 block.Exp_table2.total;
    check "block write bus" 8 block.Exp_table2.bus;
    check "dma total" 18 dma.Exp_table2.total;
    check "dma bus" 8 dma.Exp_table2.bus
  | _ -> Alcotest.fail "expected three measurements"

(* {1 Table 3} *)

let test_table3_bands () =
  let r = Exp_table3.measure ~txns:200 () in
  check "rvm single write" 3515 r.Exp_table3.rvm_single_write;
  check "rlvm single write" 16 r.Exp_table3.rlvm_single_write;
  check_bool
    (Printf.sprintf "rvm tps %.0f within 10%% of 418" r.Exp_table3.rvm_tps)
    true
    (in_band ~paper:418. r.Exp_table3.rvm_tps);
  check_bool
    (Printf.sprintf "rlvm tps %.0f within 10%% of 552" r.Exp_table3.rlvm_tps)
    true
    (in_band ~paper:552. r.Exp_table3.rlvm_tps);
  check_bool "rvm in-txn fraction near 25%" true
    (r.Exp_table3.rvm_in_txn_fraction > 0.18
     && r.Exp_table3.rvm_in_txn_fraction < 0.32);
  check_bool "rlvm in-txn fraction near 1%" true
    (r.Exp_table3.rlvm_in_txn_fraction < 0.03)

(* {1 Figure 7} *)

let test_fig7_shape () =
  let curves = Exp_fig7.measure ~events:600 ~cs:[ 256; 1024; 8192 ] () in
  List.iter
    (fun cu ->
      (* speedup decreases with c *)
      let speeds = List.map (fun p -> p.Exp_fig7.speedup) cu.Exp_fig7.points
      in
      check_bool
        (Printf.sprintf "w=%d,s=%d monotone decreasing" cu.Exp_fig7.w
           cu.Exp_fig7.s)
        true
        (speeds = List.sort (fun a b -> compare b a) speeds);
      (* large-c speedup is a few percent *)
      let last = List.nth speeds (List.length speeds - 1) in
      check_bool "large-c speedup small but >= ~1" true
        (last > 0.98 && last < 1.15))
    curves;
  (* larger objects benefit more at moderate c *)
  let at_c256 cu = (List.hd cu.Exp_fig7.points).Exp_fig7.speedup in
  let s32 = at_c256 (List.nth curves 0) in
  let s256 = at_c256 (List.nth curves 3) in
  check_bool
    (Printf.sprintf "s=256 (%.2f) beats s=32 (%.2f) at c=256" s256 s32)
    true (s256 > s32)

let test_fig7_overload_collapse () =
  (* at small c and w=8 the logger overloads and the advantage collapses *)
  let curves = Exp_fig7.measure ~events:1200 ~cs:[ 64 ] () in
  let w8 = List.nth curves 3 in
  let p = List.hd w8.Exp_fig7.points in
  check_bool "w=8 overloads at c=64" true (p.Exp_fig7.lvm_overloads > 0);
  let w1 = List.nth curves 0 in
  let p1 = List.hd w1.Exp_fig7.points in
  check_bool
    (Printf.sprintf "overload collapses speedup (%.2f < %.2f)"
       p.Exp_fig7.speedup p1.Exp_fig7.speedup)
    true
    (p.Exp_fig7.speedup < p1.Exp_fig7.speedup)

(* {1 Figure 8} *)

let test_fig8_slow_decrease () =
  let curves = Exp_fig8.measure ~events:600 ~fractions:[ 0.125; 0.5; 1.0 ] ()
  in
  List.iter
    (fun cu ->
      match cu.Exp_fig8.points with
      | [ lo; mid; hi ] ->
        check_bool "decreasing in fraction" true
          (lo.Exp_fig8.speedup >= mid.Exp_fig8.speedup
           && mid.Exp_fig8.speedup >= hi.Exp_fig8.speedup -. 0.02);
        (* "relatively little change" between 1/8 and 1/2 *)
        check_bool
          (Printf.sprintf "slow decrease (%.2f -> %.2f)" lo.Exp_fig8.speedup
             mid.Exp_fig8.speedup)
          true
          (lo.Exp_fig8.speedup -. mid.Exp_fig8.speedup < 0.25)
      | _ -> Alcotest.fail "expected three points")
    curves

(* {1 Figure 9} *)

let test_fig9_crossover_band () =
  List.iter
    (fun segment_kb ->
      let curve = Exp_fig9.measure ~segment_kb () in
      match curve.Exp_fig9.crossover_fraction with
      | Some f ->
        check_bool
          (Printf.sprintf "%dKB crossover %.2f near 2/3" segment_kb f)
          true
          (f > 0.55 && f < 0.80)
      | None -> Alcotest.fail "no crossover found")
    [ 32; 512 ]

let test_fig9_reset_linear_in_dirty () =
  let curve = Exp_fig9.measure ~segment_kb:32
      ~fractions:[ 0.0; 0.25; 0.5; 1.0 ] () in
  match curve.Exp_fig9.points with
  | [ p0; p25; p50; p100 ] ->
    check_bool "reset at 0 dirty nearly free" true
      (p0.Exp_fig9.reset_kcycles < 0.5);
    let slope1 = p50.Exp_fig9.reset_kcycles -. p25.Exp_fig9.reset_kcycles in
    let slope2 = p100.Exp_fig9.reset_kcycles /. 2. -. slope1 in
    ignore slope2;
    check_bool "linear growth" true
      (in_band ~tolerance:0.15
         ~paper:(p100.Exp_fig9.reset_kcycles /. 4.)
         slope1);
    check_bool "bcopy flat" true
      (p0.Exp_fig9.bcopy_kcycles = p100.Exp_fig9.bcopy_kcycles)
  | _ -> Alcotest.fail "expected four points"

(* {1 Figures 10-12} *)

let test_fig10_flat_gap_grows_with_cluster () =
  let clusters = Exp_fig10.measure ~iterations:2000 ~cs:[ 512 ] () in
  let gap cl =
    let p = List.hd cl.Exp_fig10.points in
    p.Exp_fig10.logged -. p.Exp_fig10.unlogged
  in
  match clusters with
  | [ c2; c4; c8 ] ->
    check_bool "logging costs more" true (gap c2 > 0.);
    check_bool
      (Printf.sprintf "gap grows with burst (%.2f <= %.2f <= %.2f)" (gap c2)
         (gap c4) (gap c8))
      true
      (gap c2 <= gap c4 +. 0.01 && gap c4 <= gap c8 +. 0.01)
  | _ -> Alcotest.fail "expected three clusters"

let test_fig11_overload_dynamics () =
  let points = Exp_fig11.measure ~iterations:8000 ~cs:[ 0; 27; 60 ] () in
  match points with
  | [ p0; p27; p60 ] ->
    check_bool "overloads at c=0" true (p0.Exp_fig11.overloads_per_1000 > 0.);
    check_bool "no overloads at c=27" true
      (p27.Exp_fig11.overloads_per_1000 = 0.);
    check_bool
      (Printf.sprintf "overload penalty %.0f > 30k" p0.Exp_fig11.overload_cost)
      true
      (p0.Exp_fig11.overload_cost > 30_000.);
    (* the paper's counterintuitive result: per-iteration time decreases
       as computation increases through the overload regime *)
    check_bool
      (Printf.sprintf "cost falls with compute (%.1f > %.1f)"
         p0.Exp_fig11.logged_per_iter p27.Exp_fig11.logged_per_iter)
      true
      (p0.Exp_fig11.logged_per_iter > p27.Exp_fig11.logged_per_iter);
    (* out of overload, logging adds a small constant *)
    check_bool "flat-region logging overhead small" true
      (p60.Exp_fig11.logged_per_iter -. p60.Exp_fig11.unlogged_per_iter < 10.)
  | _ -> Alcotest.fail "expected three points"

(* {1 Ablations} *)

let test_onchip_never_overloads () =
  let points = Exp_onchip.measure ~iterations:4000 ~cs:[ 0; 30 ] () in
  List.iter
    (fun p ->
      check "on-chip overloads" 0 p.Exp_onchip.onchip_overloads;
      check_bool "on-chip no slower than prototype" true
        (p.Exp_onchip.onchip_per_iter
         <= p.Exp_onchip.prototype_per_iter +. 0.01))
    points;
  let p0 = List.hd points in
  check_bool "prototype overloads at c=0" true
    (p0.Exp_onchip.prototype_overloads > 0)

let test_state_saving_ranking () =
  let settings = Exp_pageprot.measure ~events:600
      ~settings:[ (512, 256, 4) ] () in
  match settings with
  | [ st ] -> (
    match st.Exp_pageprot.rows with
    | [ copy; pageprot; lvm ] ->
      check_bool "lvm cheapest" true
        (lvm.Exp_pageprot.per_event < copy.Exp_pageprot.per_event
         && lvm.Exp_pageprot.per_event < pageprot.Exp_pageprot.per_event);
      check_bool "page-protect takes faults" true
        (pageprot.Exp_pageprot.protect_faults > 0)
    | _ -> Alcotest.fail "expected three rows")
  | _ -> Alcotest.fail "expected one setting"

let test_consistency_sparse_wins () =
  let rows = Exp_consistency.measure () in
  let sparse = List.hd rows in
  check_bool "log-based much cheaper when sparse" true
    (sparse.Exp_consistency.log_release * 4
     < sparse.Exp_consistency.twin_release);
  (* the overwrite-heavy dense case can favor twin/diff (Section 2.6) *)
  let dense = List.nth rows (List.length rows - 1) in
  check_bool "dense case is twin/diff's best ratio" true
    (float_of_int dense.Exp_consistency.log_release
     /. float_of_int dense.Exp_consistency.twin_release
     > float_of_int sparse.Exp_consistency.log_release
       /. float_of_int sparse.Exp_consistency.twin_release)

let suites =
  [
    ( "experiments.table2",
      [ Alcotest.test_case "exact" `Quick test_table2_exact ] );
    ( "experiments.table3",
      [ Alcotest.test_case "bands" `Slow test_table3_bands ] );
    ( "experiments.fig7",
      [
        Alcotest.test_case "shape" `Slow test_fig7_shape;
        Alcotest.test_case "overload collapse" `Slow
          test_fig7_overload_collapse;
      ] );
    ( "experiments.fig8",
      [ Alcotest.test_case "slow decrease" `Slow test_fig8_slow_decrease ] );
    ( "experiments.fig9",
      [
        Alcotest.test_case "crossover band" `Slow test_fig9_crossover_band;
        Alcotest.test_case "reset linear" `Quick
          test_fig9_reset_linear_in_dirty;
      ] );
    ( "experiments.fig10-12",
      [
        Alcotest.test_case "burst gap" `Slow
          test_fig10_flat_gap_grows_with_cluster;
        Alcotest.test_case "overload dynamics" `Slow
          test_fig11_overload_dynamics;
      ] );
    ( "experiments.ablations",
      [
        Alcotest.test_case "on-chip never overloads" `Slow
          test_onchip_never_overloads;
        Alcotest.test_case "state-saving ranking" `Slow
          test_state_saving_ranking;
        Alcotest.test_case "consistency sparse wins" `Quick
          test_consistency_sparse_wins;
      ] );
  ]

(* {1 Ablations D & E} *)

let test_timewarp_ablation_bands () =
  let rows =
    Exp_timewarp.measure ~end_time:250 ~scheduler_counts:[ 4 ] ()
  in
  List.iter
    (fun r -> check_bool "matches sequential" true
        r.Exp_timewarp.matches_sequential)
    rows;
  let find s =
    List.find (fun r -> r.Exp_timewarp.strategy = s) rows
  in
  let conservative = find Lvm_sim.State_saving.No_saving in
  let copy = find Lvm_sim.State_saving.Copy_based in
  let lvm = find Lvm_sim.State_saving.Lvm_based in
  (* the paper's argument: optimism pays only with cheap state saving *)
  check_bool "lvm-optimistic beats conservative" true
    (lvm.Exp_timewarp.elapsed_cycles
     < conservative.Exp_timewarp.elapsed_cycles);
  check_bool "copy-optimistic loses to conservative" true
    (copy.Exp_timewarp.elapsed_cycles
     > conservative.Exp_timewarp.elapsed_cycles);
  check "same committed events" copy.Exp_timewarp.committed
    lvm.Exp_timewarp.committed

let test_checkpoint_ablation_shape () =
  let points = Exp_checkpoint.measure ~dirty_counts:[ 1; 32 ] () in
  match points with
  | [ one; all ] ->
    (* bcopy flat; dc restore linear in dirty; Li/Appel restore cheap but
       mutation expensive *)
    check "bcopy independent of dirty" one.Exp_checkpoint.bcopy_cycles
      all.Exp_checkpoint.bcopy_cycles;
    check_bool "dc restore grows with dirty" true
      (all.Exp_checkpoint.dc_restore_cycles
       > 16 * one.Exp_checkpoint.dc_restore_cycles);
    check_bool "dc beats bcopy when 1/32 dirty" true
      (one.Exp_checkpoint.dc_restore_cycles
       < one.Exp_checkpoint.bcopy_cycles);
    check_bool "bcopy beats dc when all dirty" true
      (all.Exp_checkpoint.dc_restore_cycles
       > all.Exp_checkpoint.bcopy_cycles);
    check_bool "li/appel restore is near-free" true
      (all.Exp_checkpoint.ppc_restore_cycles < 2000);
    check_bool "li/appel pays on the mutator" true
      (one.Exp_checkpoint.ppc_mutate_cycles
       > 100 * one.Exp_checkpoint.dc_mutate_cycles)
  | _ -> Alcotest.fail "expected two points"

let ablation_de_suite =
  ( "experiments.ablations-de",
    [
      Alcotest.test_case "timewarp bands" `Slow test_timewarp_ablation_bands;
      Alcotest.test_case "checkpoint shape" `Quick
        test_checkpoint_ablation_shape;
    ] )

(* {1 Comparisons beyond the paper}

   Every comparison runs at its fixed size in well under a second, and
   its figures are simulated cycles, so the committed BENCH_n.json file
   must be exactly what the registry regenerates, every target met. *)

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) ignore

let read_record file =
  String.trim (In_channel.with_open_text ("../" ^ file) In_channel.input_all)

let test_committed_records () =
  List.iter
    (fun (id, record) ->
      match Experiments.find id with
      | None -> Alcotest.failf "%s is not registered" id
      | Some e ->
        let o = e.Experiments.run ~quick:false null_ppf in
        Alcotest.(check (list string)) (id ^ " targets") [] o.Report.missed;
        Alcotest.(check (option string))
          (id ^ " record")
          (Option.map read_record record)
          o.Report.blob)
    [ ("group-commit", None); ("store", Some "BENCH_5.json");
      ("fams", Some "BENCH_6.json"); ("repl", Some "BENCH_7.json");
      ("hotshard", Some "BENCH_8.json"); ("logdiet", Some "BENCH_9.json");
      ("mvcc", Some "BENCH_10.json") ]

let records_suite =
  ( "experiments.records",
    [ Alcotest.test_case "committed BENCH records" `Quick
        test_committed_records ] )

let suites = suites @ [ ablation_de_suite; records_suite ]
