(* lvmctl: command-line driver for the LVM reproduction.

   Subcommands run the reproduction experiments (every paper table and
   figure plus the comparisons behind the committed BENCH_n.json files),
   TimeWarp simulations, TPC-A, and the synthetic state-saving workload.
   Every command routes its output through one formatter, and the
   workload commands take [--metrics human|json|csv] to append merged
   counters and histograms from every machine the run created. *)

open Cmdliner

let ppf = Format.std_formatter

(* {1 Shared options} *)

let format_conv =
  Arg.enum
    (List.map
       (fun f -> (Lvm_obs.Sink.format_to_string f, f))
       Lvm_obs.Sink.all_formats)

let metrics_arg =
  Arg.(value
       & opt (some format_conv) None
       & info [ "metrics" ] ~docv:"FMT"
           ~doc:"Emit counters and histograms from every machine the \
                 command created, in $(docv) format (human, json or csv).")

(* Run [f] under an ambient collector and emit its metrics afterwards. *)
let with_metrics ?label format f =
  let result = Lvm_tools.Metrics.with_ambient ?label ~format ppf f in
  Format.pp_print_flush ppf ();
  result

(* {1 experiments} *)

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps for a fast run.")

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Format.fprintf ppf "%-14s %s@." e.Lvm_experiments.Experiments.id
          e.Lvm_experiments.Experiments.description)
      Lvm_experiments.Experiments.all;
    Format.pp_print_flush ppf ()
  in
  Cmd.v (Cmd.info "list" ~doc:"List the reproduction experiments.")
    Term.(const run $ const ())

(* Report the targets a run missed; a miss fails the command. *)
let check_targets missed =
  List.iter (fun m -> Format.fprintf ppf "FAIL: %s@." m) missed;
  Format.pp_print_flush ppf ();
  if missed <> [] then exit 1;
  `Ok ()

let exp_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ID" ~doc:"Experiment id (see $(b,lvmctl list)).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the experiment's JSON record (the committed \
                   $(b,BENCH_)$(i,n)$(b,.json) file) to $(docv).")
  in
  let run id quick metrics json =
    match Lvm_experiments.Experiments.find id with
    | None -> `Error (false, "unknown experiment " ^ id)
    | Some e -> (
      let outcome =
        with_metrics ~label:id metrics (fun () ->
            e.Lvm_experiments.Experiments.run ~quick ppf)
      in
      match (json, outcome.Lvm_experiments.Report.blob) with
      | Some _, None -> `Error (false, id ^ " records no JSON")
      | Some file, Some blob ->
        Out_channel.with_open_text file (fun oc ->
            output_string oc blob;
            output_char oc '\n');
        Format.fprintf ppf "%s written to %s@." id file;
        check_targets outcome.Lvm_experiments.Report.missed
      | None, _ -> check_targets outcome.Lvm_experiments.Report.missed)
  in
  Cmd.v
    (Cmd.info "exp"
       ~doc:"Run one experiment; exits 1 if it misses a target.")
    Term.(ret (const run $ id_arg $ quick_arg $ metrics_arg $ json_arg))

let all_cmd =
  let run quick metrics =
    check_targets
      (with_metrics ~label:"all" metrics (fun () ->
           Lvm_experiments.Experiments.run_all ~quick ppf))
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:"Run every experiment; exits 1 if any misses a target.")
    Term.(ret (const run $ quick_arg $ metrics_arg))

(* {1 sim} *)

let strategy_conv =
  let parse = function
    | "lvm" -> Ok Lvm_sim.State_saving.Lvm_based
    | "copy" -> Ok Lvm_sim.State_saving.Copy_based
    | "page-protect" -> Ok Lvm_sim.State_saving.Page_protect
    | s -> Error (`Msg ("unknown strategy " ^ s))
  in
  Arg.conv (parse, fun ppf s ->
      Format.pp_print_string ppf (Lvm_sim.State_saving.to_string s))

let sim_cmd =
  let schedulers =
    Arg.(value & opt int 4 & info [ "schedulers" ] ~doc:"Scheduler count.")
  in
  let objects =
    Arg.(value & opt int 16 & info [ "objects" ] ~doc:"Simulation objects.")
  in
  let population =
    Arg.(value & opt int 12 & info [ "population" ] ~doc:"Initial events.")
  in
  let end_time =
    Arg.(value & opt int 500 & info [ "end-time" ] ~doc:"Virtual end time.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"PHOLD seed.") in
  let strategy =
    Arg.(value & opt strategy_conv Lvm_sim.State_saving.Lvm_based
         & info [ "strategy" ] ~doc:"State saving: lvm or copy.")
  in
  let workload =
    Arg.(value
         & opt (enum [ ("phold", `Phold); ("queueing", `Queueing) ]) `Phold
         & info [ "workload" ] ~doc:"Simulation model: phold or queueing.")
  in
  let engine_kind =
    Arg.(value
         & opt (enum [ ("optimistic", `Optimistic);
                       ("conservative", `Conservative) ]) `Optimistic
         & info [ "engine" ] ~doc:"optimistic (TimeWarp) or conservative.")
  in
  let cpus =
    Arg.(value & opt int 1
         & info [ "cpus" ]
             ~doc:"Machine CPUs (optimistic engine only): schedulers share \
                   one multi-CPU kernel, pinned round-robin.")
  in
  let run schedulers objects population end_time seed strategy workload
      engine_kind cpus metrics =
    if cpus <= 0 then `Error (false, "--cpus must be positive")
    else begin
    let app, inject_tw, inject_cons, name =
      match workload with
      | `Phold ->
        ( Lvm_sim.Phold.app ~objects ~seed (),
          (fun e ->
            Lvm_sim.Phold.inject_population e ~objects ~population ~seed),
          (fun e ->
            for i = 0 to population - 1 do
              let h = Lvm_sim.Phold.hash seed i 17 23 in
              Lvm_sim.Conservative.inject e ~time:(1 + (h mod 10))
                ~dst:(h / 16 mod objects) ~payload:(h land 0xFFFF)
            done),
          "PHOLD" )
      | `Queueing ->
        ( Lvm_sim.Queueing.app ~stations:objects ~seed,
          (fun e ->
            Lvm_sim.Queueing.inject_customers e ~stations:objects
              ~customers:population ~seed),
          (fun e ->
            for c = 0 to population - 1 do
              let h = Lvm_sim.Phold.hash seed c 3 5 in
              Lvm_sim.Conservative.inject e ~time:(1 + (h mod 8))
                ~dst:(h / 8 mod objects) ~payload:(c land 0xFFFF)
            done),
          "queueing network" )
    in
    with_metrics ~label:"sim" metrics (fun () ->
        match engine_kind with
        | `Conservative ->
          let e =
            Lvm_sim.Conservative.create ~n_schedulers:schedulers ~app ()
          in
          inject_cons e;
          let r = Lvm_sim.Conservative.run e ~end_time in
          Format.fprintf ppf
            "%s (conservative): %d schedulers, %d objects, %d tokens, \
             end-time %d@."
            name schedulers objects population end_time;
          Format.fprintf ppf "  events processed   %d@."
            r.Lvm_sim.Conservative.events_processed;
          Format.fprintf ppf "  barrier steps      %d@."
            r.Lvm_sim.Conservative.steps;
          Format.fprintf ppf "  elapsed (cycles)   %d@."
            r.Lvm_sim.Conservative.elapsed_cycles;
          Format.fprintf ppf "  busy (cycles)      %d@."
            r.Lvm_sim.Conservative.busy_cycles
        | `Optimistic ->
          let engine =
            Lvm_sim.Timewarp.create ~cpus ~n_schedulers:schedulers ~strategy
              ~app ()
          in
          inject_tw engine;
          let r = Lvm_sim.Timewarp.run engine ~end_time in
          Format.fprintf ppf
            "%s: %d schedulers, %d objects, %d tokens, end-time %d (%s%s)@."
            name schedulers objects population end_time
            (Lvm_sim.State_saving.to_string strategy)
            (if cpus = 1 then ""
             else Printf.sprintf ", %d cpus" cpus);
          Format.fprintf ppf "  committed events   %d@."
            r.Lvm_sim.Timewarp.total_events_committed;
          Format.fprintf ppf "  processed events   %d@."
            r.Lvm_sim.Timewarp.total_events_processed;
          Format.fprintf ppf "  rollbacks          %d@."
            r.Lvm_sim.Timewarp.total_rollbacks;
          Format.fprintf ppf "  stragglers         %d@."
            r.Lvm_sim.Timewarp.total_stragglers;
          Format.fprintf ppf "  anti-messages      %d@."
            r.Lvm_sim.Timewarp.total_anti_messages;
          Format.fprintf ppf "  elapsed (cycles)   %d@."
            r.Lvm_sim.Timewarp.elapsed_cycles;
          Format.fprintf ppf "  efficiency         %.1f%%@."
            (100.
             *. float_of_int r.Lvm_sim.Timewarp.total_events_committed
             /. float_of_int (max 1 r.Lvm_sim.Timewarp.total_events_processed)));
    `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Run a simulation (PHOLD or queueing) over LVM.")
    Term.(ret (const run $ schedulers $ objects $ population $ end_time $ seed
          $ strategy $ workload $ engine_kind $ cpus $ metrics_arg))

(* {1 tpca} *)

let run_tpca ~txns ~store =
  let k = Lvm_vm.Kernel.create () in
  let sp = Lvm_vm.Kernel.create_space k in
  let bank =
    Lvm_tpc.Bank.layout ~branches:4 ~tellers:40 ~accounts:400 ~history:256
  in
  let size = Lvm_tpc.Bank.segment_bytes bank in
  let name, s =
    match store with
    | `Rvm -> ("RVM", Lvm_tpc.Tpca.rvm_store (Lvm_rvm.Rvm.make Lvm_rvm.Rvm.Config.default k sp ~size))
    | `Rlvm ->
      ("RLVM", Lvm_tpc.Tpca.rlvm_store (Lvm_rvm.Rlvm.make Lvm_rvm.Rlvm.Config.default k sp ~size))
  in
  Lvm_tpc.Tpca.setup s bank;
  let r = Lvm_tpc.Tpca.run s bank ~txns in
  Format.fprintf ppf
    "TPC-A on %s: %d txns, %.0f tps, %.0f cycles/txn, invariant %b@." name
    r.Lvm_tpc.Tpca.txns r.Lvm_tpc.Tpca.tps r.Lvm_tpc.Tpca.cycles_per_txn
    (Lvm_tpc.Tpca.balance_invariant s bank)

let tpca_cmd =
  let txns =
    Arg.(value & opt int 500 & info [ "txns" ] ~doc:"Transactions to run.")
  in
  let store =
    Arg.(value & opt (enum [ ("rvm", `Rvm); ("rlvm", `Rlvm) ]) `Rlvm
         & info [ "store" ] ~doc:"Recoverable store: rvm or rlvm.")
  in
  let run txns store metrics =
    with_metrics ~label:"tpca" metrics (fun () -> run_tpca ~txns ~store)
  in
  Cmd.v (Cmd.info "tpca" ~doc:"Run the TPC-A debit-credit benchmark.")
    Term.(const run $ txns $ store $ metrics_arg)

(* {1 synthetic} *)

let run_synthetic ~events ~c ~s ~w strategy =
  let p = { Lvm_sim.Synthetic.default_params with
            Lvm_sim.Synthetic.events; c; s; w } in
  let r = Lvm_sim.Synthetic.run p strategy in
  Format.fprintf ppf
    "synthetic (%s): %.2f cycles/event, %d overloads, %d log records, \
     %d protect faults@."
    (Lvm_sim.State_saving.to_string strategy)
    r.Lvm_sim.Synthetic.per_event r.Lvm_sim.Synthetic.overloads
    r.Lvm_sim.Synthetic.log_records r.Lvm_sim.Synthetic.protect_faults;
  if strategy = Lvm_sim.State_saving.Lvm_based then
    Format.fprintf ppf "speedup over copy-based: %.2f@."
      (Lvm_sim.Synthetic.speedup p)

let synthetic_cmd =
  let events =
    Arg.(value & opt int 2000 & info [ "events" ] ~doc:"Events to process.")
  in
  let c =
    Arg.(value & opt int 512
         & info [ "compute" ] ~doc:"Compute cycles per event (c).")
  in
  let s =
    Arg.(value & opt int 64
         & info [ "object-bytes" ] ~doc:"Object size in bytes (s).")
  in
  let w =
    Arg.(value & opt int 2 & info [ "writes" ] ~doc:"Writes per event (w).")
  in
  let strategy =
    Arg.(value & opt strategy_conv Lvm_sim.State_saving.Lvm_based
         & info [ "strategy" ] ~doc:"lvm, copy or page-protect.")
  in
  let run events c s w strategy metrics =
    with_metrics ~label:"synthetic" metrics (fun () ->
        run_synthetic ~events ~c ~s ~w strategy)
  in
  Cmd.v
    (Cmd.info "synthetic"
       ~doc:"Run the Section 4.3 synthetic simulation workload.")
    Term.(const run $ events $ c $ s $ w $ strategy $ metrics_arg)

(* {1 crashsweep} *)

let crashsweep_cmd =
  let points =
    Arg.(value & opt int 200
         & info [ "points" ] ~doc:"Crash points swept over the workload.")
  in
  let torn =
    Arg.(value & opt int 24
         & info [ "torn" ] ~doc:"Torn-write points (WAL appends torn).")
  in
  let txns =
    Arg.(value & opt int 12
         & info [ "txns" ] ~doc:"Transactions in the swept workload.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Sweep seed.") in
  let cpus =
    Arg.(value & opt int 1
         & info [ "cpus" ]
             ~doc:"Machine CPUs per swept run (workload runs on CPU 0).")
  in
  let group =
    Arg.(value & opt int 1
         & info [ "group" ]
             ~doc:"Group-commit batch size for the RLVM under test \
                   (1 forces the WAL on every commit).")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ]
             ~doc:"Sweep a sharded store with cross-shard two-phase \
                   commits instead of the single-store TPC-A workload.")
  in
  let show_trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Print the deterministic per-run recovery trace.")
  in
  let split =
    Arg.(value & flag
         & info [ "split" ]
             ~doc:"Sweep the shard-move (split/merge) protocol instead: a \
                   scripted split + merge schedule crashed at every point, \
                   including inside the cutover force itself.")
  in
  let cutover =
    Arg.(value & opt int 2
         & info [ "cutover" ]
             ~doc:"With $(b,--split): crash points injected at the \
                   split-cutover fault site.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead.")
  in
  let run points torn txns seed cpus group shards split cutover show_trace
      json =
    if cpus <= 0 then `Error (false, "--cpus must be positive")
    else if group <= 0 then `Error (false, "--group must be positive")
    else if shards <= 0 then `Error (false, "--shards must be positive")
    else begin
    (* the split sweep needs a move target; default to two shards *)
    let shards = if split && shards = 1 then 2 else shards in
    let o =
      if split then
        Lvm_tpc.Crash_sweep.run_split ~seed ~points ~torn_points:torn
          ~cutover_points:cutover ~shards ()
      else
        Lvm_tpc.Crash_sweep.run ~seed ~txns ~points ~torn_points:torn ~cpus
          ~group ~shards ()
    in
    let kind = if split then "splitsweep" else "crashsweep" in
    if json then begin
      let open Lvm_tools.Output_stream.Envelope in
      emit ~kind ppf
        [ ("seed", Int seed); ("txns", Int txns); ("cpus", Int cpus);
          ("group", Int group); ("shards", Int shards);
          ("split", Int (Bool.to_int split));
          ("points", Int o.Lvm_tpc.Crash_sweep.points);
          ("crashed", Int o.Lvm_tpc.Crash_sweep.crashed);
          ("completed", Int o.Lvm_tpc.Crash_sweep.completed);
          ("torn", Int o.Lvm_tpc.Crash_sweep.torn);
          ("failures",
           List
             (List.map (fun f -> String f) o.Lvm_tpc.Crash_sweep.failures))
        ]
    end
    else begin
      Format.fprintf ppf
        "%s (%d cpu%s, group %d%s): %d points (%d crashed, %d \
         completed, %d torn tails), %d failures@."
        (if split then "split sweep" else "crash sweep")
        cpus
        (if cpus = 1 then "" else "s")
        group
        (if shards = 1 then "" else Printf.sprintf ", %d shards" shards)
        o.Lvm_tpc.Crash_sweep.points o.Lvm_tpc.Crash_sweep.crashed
        o.Lvm_tpc.Crash_sweep.completed o.Lvm_tpc.Crash_sweep.torn
        (List.length o.Lvm_tpc.Crash_sweep.failures);
      List.iter
        (fun f -> Format.fprintf ppf "FAIL: %s@." f)
        o.Lvm_tpc.Crash_sweep.failures
    end;
    if show_trace then Format.fprintf ppf "%s" o.Lvm_tpc.Crash_sweep.trace;
    Format.pp_print_flush ppf ();
    if o.Lvm_tpc.Crash_sweep.failures <> [] then exit 1;
    `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "crashsweep"
       ~doc:"Crash a transactional RLVM workload at every swept point, \
             recover, and check crash-consistency invariants.")
    Term.(ret (const run $ points $ torn $ txns $ seed $ cpus $ group
          $ shards $ split $ cutover $ show_trace $ json))

(* {1 logstats} *)

(* A seeded, skewed logged-write workload: most writes hammer a small hot
   set of words, the rest scatter — exactly the redundancy pattern the
   Section 2.7 analysis exists to expose. *)
let run_logstats ~writes ~hot ~seed ~limit ~codec ~coalesce ~txn ~json =
  let page = Lvm_machine.Addr.page_size in
  let k = Lvm_vm.Kernel.create ~codec ~coalesce_depth:coalesce () in
  let sp = Lvm_vm.Kernel.create_space k in
  let seg = Lvm_vm.Kernel.create_segment k ~size:(4 * page) in
  let region = Lvm_vm.Kernel.create_region k seg in
  let log = Lvm_log.create k ~size:(4 * page) in
  let ls = Lvm_log.segment log in
  Lvm_vm.Kernel.set_region_log k region (Some ls);
  let base = Lvm_vm.Kernel.bind k sp region in
  let words = 4 * page / 4 in
  let rng = Random.State.make [| seed |] in
  let txns = ref 0 in
  for i = 0 to writes - 1 do
    Lvm_log.reserve log ~bytes:Lvm_machine.Log_record.bytes ~max_pages:max_int;
    let off =
      if Random.State.int rng 100 < 80 then 4 * Random.State.int rng hot
      else 4 * Random.State.int rng words
    in
    Lvm_vm.Kernel.write_word k sp (base + off) i;
    (* every [txn] writes is a commit boundary: a hard sync drains the
       coalescing buffer, exactly what a transaction commit does *)
    if (i + 1) mod txn = 0 then begin
      Lvm_vm.Kernel.sync_log k ls;
      incr txns
    end
  done;
  Lvm_vm.Kernel.sync_log k ls;
  if writes mod txn <> 0 then incr txns;
  let s = Lvm_tools.Log_stats.summarize k ~watched:seg ~log:ls in
  let top = Lvm_tools.Log_stats.top_rewritten ~limit k ~watched:seg ~log:ls in
  let ring = Lvm_log.stats log in
  let d = Lvm_tools.Log_stats.diet k ~log ~txns:!txns in
  if json then begin
    let open Lvm_tools.Output_stream.Envelope in
    emit ~kind:"logstats" ppf
      [ ("records", Int s.Lvm_tools.Log_stats.records);
        ("distinct_locations",
         Int s.Lvm_tools.Log_stats.distinct_locations);
        ("redundant", Int s.Lvm_tools.Log_stats.redundant);
        ("redundancy_ratio",
         Float s.Lvm_tools.Log_stats.redundancy_ratio);
        ("top_rewritten",
         List
           (List.map
              (fun (off, n) ->
                Obj [ ("offset", Int off); ("writes", Int n) ])
              top));
        ("log",
         Obj
           [ ("extents", Int ring.Lvm_log.extents);
             ("extent_pages", Int ring.Lvm_log.extent_pages);
             ("write_pos", Int ring.Lvm_log.write_pos);
             ("capacity", Int ring.Lvm_log.capacity);
             ("utilization_pct", Int ring.Lvm_log.utilization_pct);
             ("switches", Int ring.Lvm_log.switches);
             ("sealed_bytes", Int d.Lvm_tools.Log_stats.sealed_bytes);
             ("active_bytes", Int d.Lvm_tools.Log_stats.active_bytes) ]);
        ("diet",
         Obj
           [ ("codec",
              String
                (match d.Lvm_tools.Log_stats.version with
                | Lvm_machine.Log_record.V0 -> "v0"
                | Lvm_machine.Log_record.V1 -> "v1"));
             ("txns", Int d.Lvm_tools.Log_stats.txns);
             ("bytes_per_txn", Float d.Lvm_tools.Log_stats.bytes_per_txn);
             ("absorbed", Int d.Lvm_tools.Log_stats.absorbed);
             ("flushed", Int d.Lvm_tools.Log_stats.flushed);
             ("absorption_ratio",
              Float d.Lvm_tools.Log_stats.absorption_ratio);
             ("records_raw", Int d.Lvm_tools.Log_stats.raw);
             ("records_run", Int d.Lvm_tools.Log_stats.run);
             ("records_delta", Int d.Lvm_tools.Log_stats.delta);
             ("records_pad", Int d.Lvm_tools.Log_stats.pad);
             ("bytes_logical", Int d.Lvm_tools.Log_stats.bytes_logical);
             ("bytes_encoded", Int d.Lvm_tools.Log_stats.bytes_encoded) ]) ]
  end
  else begin
    Format.fprintf ppf
      "log analysis: %d records, %d distinct locations, %d redundant \
       (%.1f%%)@."
      s.Lvm_tools.Log_stats.records s.Lvm_tools.Log_stats.distinct_locations
      s.Lvm_tools.Log_stats.redundant
      (100. *. s.Lvm_tools.Log_stats.redundancy_ratio);
    Format.fprintf ppf
      "log ring: %d extents of %d page(s), write_pos %d/%d (%d%% full), \
       %d extent switch(es), %d B sealed / %d B active@."
      ring.Lvm_log.extents ring.Lvm_log.extent_pages ring.Lvm_log.write_pos
      ring.Lvm_log.capacity ring.Lvm_log.utilization_pct
      ring.Lvm_log.switches d.Lvm_tools.Log_stats.sealed_bytes
      d.Lvm_tools.Log_stats.active_bytes;
    Format.fprintf ppf
      "record stream: %s, %.1f bytes/txn over %d txn(s)@."
      (match d.Lvm_tools.Log_stats.version with
      | Lvm_machine.Log_record.V0 -> "v0 (16 B fixed records)"
      | Lvm_machine.Log_record.V1 -> "v1 (versioned codec)")
      d.Lvm_tools.Log_stats.bytes_per_txn d.Lvm_tools.Log_stats.txns;
    (match d.Lvm_tools.Log_stats.version with
    | Lvm_machine.Log_record.V0 -> ()
    | Lvm_machine.Log_record.V1 ->
      Format.fprintf ppf
        "  records: %d raw, %d run, %d delta, %d pad; %d logical B -> %d \
         encoded B (%.1f%% saved)@."
        d.Lvm_tools.Log_stats.raw d.Lvm_tools.Log_stats.run
        d.Lvm_tools.Log_stats.delta d.Lvm_tools.Log_stats.pad
        d.Lvm_tools.Log_stats.bytes_logical
        d.Lvm_tools.Log_stats.bytes_encoded
        (if d.Lvm_tools.Log_stats.bytes_logical = 0 then 0.
         else
           100.
           *. (1.
               -. float_of_int d.Lvm_tools.Log_stats.bytes_encoded
                  /. float_of_int d.Lvm_tools.Log_stats.bytes_logical)));
    if d.Lvm_tools.Log_stats.absorbed + d.Lvm_tools.Log_stats.flushed > 0 then
      Format.fprintf ppf
        "  coalescing: %d absorbed / %d flushed (%.1f%% absorption)@."
        d.Lvm_tools.Log_stats.absorbed d.Lvm_tools.Log_stats.flushed
        (100. *. d.Lvm_tools.Log_stats.absorption_ratio);
    Format.fprintf ppf "top rewritten offsets:@.";
    List.iter
      (fun (off, n) -> Format.fprintf ppf "  +0x%04x  %4d writes@." off n)
      top
  end;
  Format.pp_print_flush ppf ()

let logstats_cmd =
  let writes =
    Arg.(value & opt int 2000
         & info [ "writes" ] ~doc:"Logged writes to generate.")
  in
  let hot =
    Arg.(value & opt int 32
         & info [ "hot" ] ~doc:"Hot-set size in words (takes 80% of writes).")
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Workload seed.")
  in
  let limit =
    Arg.(value & opt int 10
         & info [ "limit" ] ~doc:"Top rewritten offsets to report.")
  in
  let codec =
    Arg.(value & opt (enum [ ("v0", Lvm_machine.Log_record.V0);
                             ("v1", Lvm_machine.Log_record.V1) ])
           Lvm_machine.Log_record.V0
         & info [ "codec" ]
             ~doc:"Record-stream codec: $(b,v0) (16-byte fixed records) \
                   or $(b,v1) (versioned, run/delta-compressed).")
  in
  let coalesce =
    Arg.(value & opt int 0
         & info [ "coalesce" ]
             ~doc:"Logger write-coalescing buffer depth in records \
                   (0: off).")
  in
  let txn =
    Arg.(value & opt int 100
         & info [ "txn" ]
             ~doc:"Writes per transaction: every $(docv) writes the log \
                   is hard-synced (a commit boundary, draining the \
                   coalescing buffer).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead.")
  in
  let run writes hot seed limit codec coalesce txn json =
    if writes <= 0 then `Error (false, "--writes must be positive")
    else if hot <= 0 then `Error (false, "--hot must be positive")
    else if coalesce < 0 then `Error (false, "--coalesce must be >= 0")
    else if txn <= 0 then `Error (false, "--txn must be positive")
    else begin
      run_logstats ~writes ~hot ~seed ~limit ~codec ~coalesce ~txn ~json;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "logstats"
       ~doc:"Run a skewed logged-write workload and report the Section \
             2.7 redundancy analysis, the logging-bandwidth diet \
             (codec/coalescing) counters, and the extent-ring state.")
    Term.(ret (const run $ writes $ hot $ seed $ limit $ codec $ coalesce
          $ txn $ json))

(* {1 trace} *)

(* A small logged-write workload exercising most event types: first-touch
   page faults, logging faults, log extension and default-page
   absorption, and a deferred-copy reset. *)
let trace_writes () =
  let open Lvm.Api in
  let page = Lvm_machine.Addr.page_size in
  let k = create Config.default in
  let space = address_space k in
  let seg = std_segment k ~size:(4 * page) in
  let region = std_region k seg in
  let ls = log_segment k ~size:(2 * page) in
  log k region ls;
  let base = bind k space region in
  for i = 0 to 1023 do
    write_word k space ~vaddr:(base + (i mod 1024 * 4)) i;
    if i = 700 then extend_log k ls ~pages:4
  done;
  sync_log k ls;
  let src = std_segment k ~size:page in
  let dst = std_segment k ~size:page in
  source_segment k ~dst ~src;
  let r2 = std_region k dst in
  let b2 = bind k space r2 in
  write_word k space ~vaddr:b2 1;
  reset_deferred_copy k space ~start:b2 ~len:page

let trace_phold () =
  let app = Lvm_sim.Phold.app ~objects:8 ~seed:11 () in
  let e =
    Lvm_sim.Timewarp.create ~n_schedulers:2
      ~strategy:Lvm_sim.State_saving.Lvm_based ~app ()
  in
  Lvm_sim.Phold.inject_population e ~objects:8 ~population:8 ~seed:11;
  ignore (Lvm_sim.Timewarp.run e ~end_time:300)

let trace_cmd =
  let workload_arg =
    Arg.(required
         & pos 0
             (some
                (enum
                   [ ("writes", `Writes); ("synthetic", `Synthetic);
                     ("tpca", `Tpca); ("phold", `Phold) ]))
             None
         & info [] ~docv:"WORKLOAD"
             ~doc:"Workload to trace: writes, synthetic, tpca or phold.")
  in
  let format_arg =
    Arg.(value
         & opt format_conv Lvm_obs.Sink.Human
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Trace output format: human, json (JSON-lines) or csv.")
  in
  let run workload format metrics =
    let (), collector =
      Lvm_obs.Collector.with_collector (fun () ->
          match workload with
          | `Writes -> trace_writes ()
          | `Synthetic ->
            run_synthetic ~events:500 ~c:512 ~s:64 ~w:2
              Lvm_sim.State_saving.Lvm_based
          | `Tpca -> run_tpca ~txns:100 ~store:`Rlvm
          | `Phold -> trace_phold ())
    in
    List.iteri
      (fun i trace ->
        if Lvm_obs.Trace.total trace > 0 then begin
          if format = Lvm_obs.Sink.Human then
            Format.fprintf ppf "-- machine %d --@." i;
          Lvm_obs.Sink.emit_trace format ppf trace
        end)
      (Lvm_obs.Collector.traces collector);
    Lvm_tools.Metrics.emit ~label:"trace" ~format:metrics ppf collector;
    Format.pp_print_flush ppf ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a workload and dump its structured event trace.")
    Term.(const run $ workload_arg $ format_arg $ metrics_arg)

(* {1 store} *)

let store_cmd =
  let shards =
    Arg.(value & opt int 4
         & info [ "shards" ] ~doc:"RLVM shards (one worker CPU each).")
  in
  let txns =
    Arg.(value & opt int 400 & info [ "txns" ] ~doc:"Transactions to run.")
  in
  let cross =
    Arg.(value & opt int 20
         & info [ "cross" ]
             ~doc:"Percentage of transactions spanning two shards \
                   (two-phase commit).")
  in
  let writes =
    Arg.(value & opt int 4
         & info [ "writes" ] ~doc:"Writes per transaction.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Workload seed.")
  in
  let group =
    Arg.(value & opt int 1
         & info [ "group" ] ~doc:"Per-shard group-commit batch size.")
  in
  let compute =
    Arg.(value & opt int 400
         & info [ "compute" ]
             ~doc:"Application compute cycles per transaction.")
  in
  let zipf =
    Arg.(value & opt (some float) None
         & info [ "zipf" ] ~docv:"THETA"
             ~doc:"Draw keys from a Zipf($(docv)) distribution, hottest \
                   ranks clustered on shard 0, instead of uniformly.")
  in
  let split =
    Arg.(value & flag
         & info [ "split" ]
             ~doc:"Enable dynamic shard splitting: the driver consults the \
                   load-aware splitter and moves hot buckets mid-run.")
  in
  let rate =
    Arg.(value & opt float 0.
         & info [ "rate" ] ~docv:"TOKENS"
             ~doc:"Token-bucket admission: $(docv) transactions admitted \
                   per thousand shard-CPU cycles (0 disables the gate).")
  in
  let open_gap =
    Arg.(value & opt (some int) None
         & info [ "open" ] ~docv:"GAP"
             ~doc:"Open-loop arrivals with mean inter-arrival gap $(docv) \
                   cycles and periodic bursts, instead of the closed loop.")
  in
  let queue_cap =
    Arg.(value & opt (some int) None
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"With $(b,--open): drop an arrival whose home shard \
                   already queues $(docv) transactions.")
  in
  let read_heavy =
    Arg.(value & flag
         & info [ "read-heavy" ]
             ~doc:"95/5 read-heavy mix: 95% of the operations are \
                   single-key reads drawn from the key distribution, \
                   served by the shard workers unless \
                   $(b,--snapshot-readers) moves them off.")
  in
  let snap_readers =
    Arg.(value & opt (some int) None
         & info [ "snapshot-readers" ] ~docv:"N"
             ~doc:"Serve the reads from log-derived MVCC snapshots on \
                   $(docv) virtual readers instead of the shard worker \
                   CPUs.")
  in
  let as_of =
    Arg.(value & opt (some int) None
         & info [ "as-of" ] ~docv:"TS"
             ~doc:"After the run, acquire a time-travel snapshot at \
                   commit timestamp $(docv) and probe a few keys \
                   through it.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead.")
  in
  let run shards txns cross writes seed group compute zipf split rate
      open_gap queue_cap read_heavy snap_readers as_of json metrics =
    if shards <= 0 then `Error (false, "--shards must be positive")
    else if txns <= 0 then `Error (false, "--txns must be positive")
    else if cross < 0 || cross > 100 then
      `Error (false, "--cross must be a percentage")
    else if rate < 0. then `Error (false, "--rate must be non-negative")
    else if (match snap_readers with Some n -> n <= 0 | None -> false) then
      `Error (false, "--snapshot-readers must be positive")
    else begin
      with_metrics ~label:"store" metrics (fun () ->
          let st =
            Lvm_store.Store.create
              { Lvm_store.Store.Config.default with
                shards; group; compute; admission_rate = rate }
          in
          let dist =
            match zipf with
            | Some theta -> Lvm_store.Workload.Zipfian { theta }
            | None -> Lvm_store.Workload.Uniform
          in
          let arrival =
            match open_gap with
            | Some mean_gap ->
              Lvm_store.Workload.Open
                { mean_gap; burst_every = 64; burst_len = 16;
                  burst_gap = max 1 (mean_gap / 8) }
            | None -> Lvm_store.Workload.Closed
          in
          let r =
            Lvm_store.Workload.run st
              { Lvm_store.Workload.default with
                txns; cross_pct = cross; writes_per_txn = writes; seed;
                dist; arrival; queue_cap;
                split =
                  (if split then Some Lvm_store.Workload.default_split
                   else None);
                read_pct = (if read_heavy then 95 else 0);
                read_mode =
                  (match snap_readers with
                  | Some _ -> Lvm_store.Workload.Snapshot
                  | None -> Lvm_store.Workload.Worker);
                readers = Option.value snap_readers ~default:1 }
          in
          (* The time-travel probe: a handful of evenly spaced keys read
             through a snapshot pinned at the requested timestamp. *)
          let asof_probe =
            Option.map
              (fun ts ->
                match Lvm_store.Store.Snapshot.as_of st ~ts with
                | Error e -> (ts, Error (Lvm.Lvm_error.to_string e))
                | Ok snap ->
                  let keys =
                    (Lvm_store.Store.config st).Lvm_store.Store.Config.keys
                  in
                  let n = min 8 keys in
                  let vals =
                    List.init n (fun i ->
                        let key = i * (max 1 (keys / n)) in
                        ( key,
                          match Lvm_store.Store.Snapshot.read snap key with
                          | Ok v -> v
                          | Error _ -> -1 ))
                  in
                  Lvm_store.Store.Snapshot.release snap;
                  (ts, Ok vals))
              as_of
          in
          if json then begin
            let open Lvm_tools.Output_stream.Envelope in
            emit ~kind:"store" ppf
              [ ("shards", Int shards); ("txns", Int txns);
                ("cross_pct", Int cross); ("seed", Int seed);
                ("group", Int group);
                ("zipf", Float (Option.value zipf ~default:0.));
                ("rate", Float rate);
                ("executed", Int r.Lvm_store.Workload.executed);
                ("reads", Int r.Lvm_store.Workload.reads);
                ("read_mode",
                 String (match snap_readers with
                        | Some _ -> "snapshot"
                        | None -> "worker"));
                ("cross", Int r.Lvm_store.Workload.cross);
                ("shed", Int r.Lvm_store.Workload.shed);
                ("failed", Int r.Lvm_store.Workload.failed);
                ("requeued", Int r.Lvm_store.Workload.requeued);
                ("moved", Int r.Lvm_store.Workload.moved);
                ("dropped", Int r.Lvm_store.Workload.dropped);
                ("splits", Int r.Lvm_store.Workload.splits);
                ("merges", Int r.Lvm_store.Workload.merges);
                ("wall_cycles", Int r.Lvm_store.Workload.wall_cycles);
                ("cycles_per_txn", Float r.Lvm_store.Workload.cycles_per_txn);
                ("per_shard",
                 List
                   (Array.to_list
                      (Array.mapi
                         (fun i (s : Lvm_store.Workload.shard_stat) ->
                           Obj
                             [ ("shard", Int i); ("txns", Int s.txns);
                               ("cycles", Int s.cycles) ])
                         r.Lvm_store.Workload.per_shard)));
                ("as_of",
                 match asof_probe with
                 | None -> Null
                 | Some (ts, Error e) ->
                   Obj [ ("ts", Int ts); ("error", String e) ]
                 | Some (ts, Ok vals) ->
                   Obj
                     [ ("ts", Int ts);
                       ("values",
                        List
                          (List.map
                             (fun (key, v) ->
                               Obj [ ("key", Int key); ("value", Int v) ])
                             vals)) ]) ]
          end
          else begin
            Format.fprintf ppf
              "store: %d shard(s), %d txns executed (%d cross-shard), %d \
               shed, %d failed, %d requeued@."
              shards r.Lvm_store.Workload.executed r.Lvm_store.Workload.cross
              r.Lvm_store.Workload.shed r.Lvm_store.Workload.failed
              r.Lvm_store.Workload.requeued;
            if r.Lvm_store.Workload.reads > 0 then
              Format.fprintf ppf "%d reads served (%s)@."
                r.Lvm_store.Workload.reads
                (match snap_readers with
                | Some n -> Printf.sprintf "snapshot mode, %d readers" n
                | None -> "worker mode");
            if r.Lvm_store.Workload.moved > 0
               || r.Lvm_store.Workload.dropped > 0
               || r.Lvm_store.Workload.splits > 0
               || r.Lvm_store.Workload.merges > 0 then
              Format.fprintf ppf
                "splits %d, merges %d, %d moved-key requeues, %d arrivals \
                 dropped@."
                r.Lvm_store.Workload.splits r.Lvm_store.Workload.merges
                r.Lvm_store.Workload.moved r.Lvm_store.Workload.dropped;
            Format.fprintf ppf "wall %d cycles, %.1f cycles/txn@."
              r.Lvm_store.Workload.wall_cycles
              r.Lvm_store.Workload.cycles_per_txn;
            Array.iteri
              (fun i (s : Lvm_store.Workload.shard_stat) ->
                Format.fprintf ppf "  shard %d: %d txns, %d cpu cycles@." i
                  s.txns s.cycles)
              r.Lvm_store.Workload.per_shard;
            match asof_probe with
            | None -> ()
            | Some (ts, Error e) ->
              Format.fprintf ppf "as-of %d: %s@." ts e
            | Some (ts, Ok vals) ->
              Format.fprintf ppf "as-of %d:%t@." ts (fun ppf ->
                  List.iter
                    (fun (key, v) -> Format.fprintf ppf " %d=%d" key v)
                    vals)
          end);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:"Run the sharded transactional store under a seeded workload \
             (closed or open loop, uniform or Zipfian, optionally with \
             dynamic shard splitting), report per-shard throughput, and \
             optionally serve a read-heavy mix from log-derived MVCC \
             snapshots.")
    Term.(ret (const run $ shards $ txns $ cross $ writes $ seed $ group
          $ compute $ zipf $ split $ rate $ open_gap $ queue_cap
          $ read_heavy $ snap_readers $ as_of $ json $ metrics_arg))

(* {1 fams} *)

let fams_cmd =
  let size =
    Arg.(value & opt int 8192
         & info [ "size" ] ~doc:"Mapped region size in bytes.")
  in
  let snaps =
    Arg.(value & opt int 32 & info [ "snaps" ] ~doc:"Snapshots to take.")
  in
  let writes =
    Arg.(value & opt int 8
         & info [ "writes" ] ~doc:"Plain word writes per snapshot.")
  in
  let group =
    Arg.(value & opt int 1
         & info [ "group" ] ~doc:"Snapshot-boundary group-commit batch.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Workload seed.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead.")
  in
  let run size snaps writes group seed json metrics =
    if size <= 0 || size mod 8 <> 0 then
      `Error (false, "--size must be a positive multiple of 8")
    else if snaps <= 0 then `Error (false, "--snaps must be positive")
    else if writes <= 0 then `Error (false, "--writes must be positive")
    else if group <= 0 then `Error (false, "--group must be positive")
    else begin
      let module Fams = Lvm_fams in
      let exception Failed of Lvm.Lvm_error.t in
      let check = function Ok v -> v | Error e -> raise (Failed e) in
      match
        with_metrics ~label:"fams" metrics (fun () ->
            let k = Lvm_vm.Kernel.create ~frames:512 () in
            let sp = Lvm_vm.Kernel.create_space k in
            let f =
              check (Fams.map { Fams.Config.default with group } k sp ~size)
            in
            let words = size / 8 in
            let spans = ref 0 and bytes = ref 0 and forces = ref 0 in
            let t0 = Lvm_vm.Kernel.time k in
            for s = 0 to snaps - 1 do
              for w = 0 to writes - 1 do
                let off = (((s * writes) + w) * 7 + seed) mod words * 8 in
                check (Fams.write_word f ~off ((s * writes) + w))
              done;
              let rep = check (Fams.snapshot f) in
              spans := !spans + rep.Fams.spans;
              bytes := !bytes + rep.Fams.bytes;
              if rep.Fams.forced then incr forces
            done;
            check (Fams.flush f);
            let wall = Lvm_vm.Kernel.time k - t0 in
            if json then begin
              let open Lvm_tools.Output_stream.Envelope in
              emit ~kind:"fams" ppf
                [ ("size", Int size); ("snaps", Int snaps);
                  ("writes", Int writes); ("group", Int group);
                  ("seed", Int seed); ("wall_cycles", Int wall);
                  ("cycles_per_snapshot",
                   Float (float_of_int wall /. float_of_int snaps));
                  ("spans", Int !spans); ("bytes", Int !bytes);
                  ("forces", Int !forces) ]
            end
            else begin
              Format.fprintf ppf
                "fams: %d snapshot(s) of %d write(s) over %d bytes \
                 (group %d)@."
                snaps writes size group;
              Format.fprintf ppf
                "wall %d cycles, %.1f cycles/snapshot; %d span(s), %d \
                 byte(s) persisted, %d force(s)@."
                wall
                (float_of_int wall /. float_of_int snaps)
                !spans !bytes !forces
            end)
      with
      | () -> `Ok ()
      | exception Failed e -> `Error (false, Lvm.Lvm_error.to_string e)
    end
  in
  Cmd.v
    (Cmd.info "fams"
       ~doc:"Run a plain-write + snapshot workload through the \
             failure-atomic snapshot API and report persistence costs.")
    Term.(ret (const run $ size $ snaps $ writes $ group $ seed $ json
          $ metrics_arg))

(* {1 repl} *)

(* Seeded transport-fault profiles for the replication scenario. *)
let repl_profile ~seed name =
  let open Lvm_fault in
  let inj site trigger fault = { Plan.site; trigger; fault } in
  let frame = Fault.Net_frame and ack = Fault.Net_ack in
  let injections =
    match name with
    | `None -> []
    | `Drop ->
      [ inj frame (Plan.With_probability 0.15) Fault.Net_drop;
        inj ack (Plan.With_probability 0.10) Fault.Net_drop ]
    | `Delay ->
      [ inj frame (Plan.With_probability 0.15) (Fault.Net_delay { ticks = 3 });
        inj frame (Plan.With_probability 0.08) Fault.Net_dup;
        inj ack (Plan.With_probability 0.10) (Fault.Net_delay { ticks = 2 }) ]
    | `Reorder ->
      [ inj frame (Plan.With_probability 0.15) Fault.Net_reorder;
        inj frame (Plan.With_probability 0.05) Fault.Net_dup;
        inj ack (Plan.With_probability 0.08) Fault.Net_reorder ]
    | `Chaos ->
      [ inj frame (Plan.With_probability 0.08) Fault.Net_drop;
        inj frame (Plan.With_probability 0.08) (Fault.Net_delay { ticks = 2 });
        inj frame (Plan.With_probability 0.05) Fault.Net_dup;
        inj frame (Plan.With_probability 0.05) Fault.Net_reorder;
        inj ack (Plan.With_probability 0.08) Fault.Net_drop ]
  in
  if injections = [] then None else Some (Plan.create ~seed injections)

let repl_cmd =
  let module Repl = Lvm_repl in
  let replicas =
    Arg.(value & opt int 2
         & info [ "replicas" ] ~doc:"Standby replicas shipped to.")
  in
  let txns =
    Arg.(value & opt int 24
         & info [ "txns" ] ~doc:"Transactions committed on the primary.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~doc:"Workload and fault-plan seed.")
  in
  let profile =
    Arg.(value
         & opt
             (enum
                [ ("none", `None); ("drop", `Drop); ("delay", `Delay);
                  ("reorder", `Reorder); ("chaos", `Chaos) ])
             `Chaos
         & info [ "profile" ] ~docv:"PROFILE"
             ~doc:"Transport-fault profile: none, drop, delay, reorder \
                   or chaos.")
  in
  let kill_at =
    Arg.(value & opt (some int) None
         & info [ "kill-at" ] ~docv:"K"
             ~doc:"Fail-stop the primary after transaction $(docv) \
                   (default: txns/2) and promote a standby.")
  in
  let no_kill =
    Arg.(value & flag
         & info [ "no-kill" ]
             ~doc:"Skip the failover: just replicate the workload and \
                   converge.")
  in
  let sweep =
    Arg.(value & flag
         & info [ "sweep" ]
             ~doc:"Run the seeded replication crash sweep instead of one \
                   scenario (see also $(b,--kill-points), \
                   $(b,--fault-only)).")
  in
  let kill_points =
    Arg.(value & opt int 84
         & info [ "kill-points" ]
             ~doc:"Sweep schedules that fail-stop the primary mid-stream.")
  in
  let fault_only =
    Arg.(value & opt int 16
         & info [ "fault-only" ]
             ~doc:"Sweep schedules that only stress the transport.")
  in
  let show_trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Print the deterministic per-schedule sweep trace.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead.")
  in
  let run_sweep ~seed ~txns ~kill_points ~fault_only ~replicas ~show_trace
      ~json =
    let o =
      Lvm_tpc.Crash_sweep.run_repl ~seed ~txns ~kill_points ~fault_only
        ~replicas ()
    in
    if json then begin
      let open Lvm_tools.Output_stream.Envelope in
      emit ~kind:"replsweep" ppf
        [ ("seed", Int seed); ("txns", Int txns);
          ("replicas", Int replicas);
          ("points", Int o.Lvm_tpc.Crash_sweep.points);
          ("failovers", Int o.Lvm_tpc.Crash_sweep.crashed);
          ("fault_only", Int o.Lvm_tpc.Crash_sweep.completed);
          ("resynced", Int o.Lvm_tpc.Crash_sweep.torn);
          ("failures",
           List
             (List.map (fun f -> String f) o.Lvm_tpc.Crash_sweep.failures))
        ]
    end
    else begin
      Format.fprintf ppf
        "repl sweep (%d replica%s): %d schedules (%d failovers, %d \
         fault-only, %d resynced), %d failures@."
        replicas
        (if replicas = 1 then "" else "s")
        o.Lvm_tpc.Crash_sweep.points o.Lvm_tpc.Crash_sweep.crashed
        o.Lvm_tpc.Crash_sweep.completed o.Lvm_tpc.Crash_sweep.torn
        (List.length o.Lvm_tpc.Crash_sweep.failures);
      List.iter
        (fun f -> Format.fprintf ppf "FAIL: %s@." f)
        o.Lvm_tpc.Crash_sweep.failures
    end;
    if show_trace then Format.fprintf ppf "%s" o.Lvm_tpc.Crash_sweep.trace;
    Format.pp_print_flush ppf ();
    if o.Lvm_tpc.Crash_sweep.failures <> [] then exit 1
  in
  let run_scenario ~replicas ~txns ~seed ~profile ~kill_at ~no_kill ~json
      ~metrics =
    with_metrics ~label:"repl" metrics (fun () ->
        let plan = repl_profile ~seed profile in
        let cl = Repl.create ?plan { Repl.Config.default with replicas } in
        let keys = Repl.keys cl in
        let rng = Random.State.make [| seed |] in
        let commit j =
          let k1 = Random.State.int rng keys in
          let k2 = Random.State.int rng keys in
          match
            Repl.exec cl
              ~writes:[ (k1, (j * 100) + 1); (k2, (j * 100) + 2) ]
          with
          | Ok () -> Repl.step ~ticks:3 cl
          | Error e -> failwith (Lvm.Lvm_error.to_string e)
        in
        let kill = if no_kill then None
          else Some (match kill_at with Some k -> k | None -> txns / 2) in
        let promo = ref None in
        for j = 0 to txns - 1 do
          commit j;
          match kill with
          | Some k when j = k ->
            Repl.step ~ticks:2 cl;
            Repl.kill_primary cl;
            Repl.step ~ticks:4 cl;
            promo := Some (Repl.promote cl)
          | _ -> ()
        done;
        let converged = Repl.sync cl in
        let s = Repl.stats cl in
        if json then begin
          let open Lvm_tools.Output_stream.Envelope in
          let promo_fields =
            match !promo with
            | None -> [ ("failover", Obj [ ("killed", Int 0) ]) ]
            | Some p ->
              [ ("failover",
                 Obj
                   [ ("killed", Int 1);
                     ("new_primary", Int p.Repl.new_primary);
                     ("new_epoch", Int p.Repl.new_epoch);
                     ("applied_bytes", Int p.Repl.applied_bytes);
                     ("folded_bytes", Int p.Repl.folded_bytes);
                     ("failover_ticks", Int p.Repl.failover_ticks) ]) ]
          in
          emit ~kind:"repl" ppf
            ([ ("replicas", Int replicas); ("txns", Int txns);
               ("seed", Int seed); ("converged", Int (Bool.to_int converged));
               ("epoch", Int s.Repl.s_epoch);
               ("stream_end", Int s.Repl.s_stream_end);
               ("base", Int s.Repl.s_base);
               ("min_acked", Int s.Repl.s_min_acked);
               ("frames_sent", Int s.Repl.frames_sent);
               ("frames_dropped", Int s.Repl.frames_dropped);
               ("retransmits", Int s.Repl.retransmits);
               ("resyncs", Int s.Repl.resyncs);
               ("fenced", Int s.Repl.fenced) ]
            @ promo_fields)
        end
        else begin
          Format.fprintf ppf "repl: %d replica(s), %d txns, seed %d@."
            replicas txns seed;
          (match !promo with
          | None -> ()
          | Some p ->
            Format.fprintf ppf "failover: %s@." (Repl.promotion_to_string p));
          Format.fprintf ppf "%s@." (Repl.stats_to_string s);
          Format.fprintf ppf "converged: %b@." converged
        end;
        Format.pp_print_flush ppf ();
        if not converged then exit 1)
  in
  let run replicas txns seed profile kill_at no_kill sweep kill_points
      fault_only show_trace json metrics =
    if replicas <= 0 then `Error (false, "--replicas must be positive")
    else if txns <= 0 then `Error (false, "--txns must be positive")
    else if sweep then begin
      if kill_points < 0 || fault_only < 0 || kill_points + fault_only = 0
      then `Error (false, "--kill-points/--fault-only must cover >= 1 \
                           schedule")
      else begin
        run_sweep ~seed ~txns ~kill_points ~fault_only ~replicas ~show_trace
          ~json;
        `Ok ()
      end
    end
    else begin
      run_scenario ~replicas ~txns ~seed ~profile ~kill_at ~no_kill ~json
        ~metrics;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:"Replicate a transactional workload to hot standbys over a \
             faulty transport, optionally failing over mid-stream; \
             $(b,--sweep) runs the seeded failover crash sweep.")
    Term.(ret (const run $ replicas $ txns $ seed $ profile $ kill_at
          $ no_kill $ sweep $ kill_points $ fault_only $ show_trace $ json
          $ metrics_arg))

let main =
  Cmd.group
    (Cmd.info "lvmctl" ~version:"1.0.0"
       ~doc:"Logged Virtual Memory (SOSP '95) reproduction driver.")
    [ list_cmd; exp_cmd; all_cmd; sim_cmd; tpca_cmd; synthetic_cmd;
      crashsweep_cmd; logstats_cmd; store_cmd; fams_cmd; repl_cmd;
      trace_cmd ]

let () = exit (Cmd.eval main)
