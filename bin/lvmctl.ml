(* lvmctl: command-line driver for the LVM reproduction.

   Subcommands run the reproduction experiments (every paper table and
   figure plus the comparisons behind the committed BENCH_n.json files),
   TimeWarp simulations, TPC-A, the synthetic state-saving workload, the
   crash sweeps and the logstats/store/fams/repl workloads ([report]).
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

let seed_arg ?(doc = "Workload seed.") default =
  Arg.(value & opt int default & info [ "seed" ] ~doc)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead.")

(* A report is one field list: one JSON envelope with [--json], else one
   [name value] line per field. *)
let report ~json ~kind fields =
  let open Lvm_tools.Output_stream.Envelope in
  if json then emit ~kind ppf fields else print ppf fields;
  Format.pp_print_flush ppf ()

(* {1 experiments} *)

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
  let record_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the experiment's JSON record (the committed \
                   $(b,BENCH_)$(i,n)$(b,.json) file) to $(docv).")
  in
  let run id metrics json =
    match Lvm_experiments.Experiments.find id with
    | None -> `Error (false, "unknown experiment " ^ id)
    | Some e -> (
      let outcome =
        with_metrics ~label:id metrics (fun () ->
            e.Lvm_experiments.Experiments.run ppf)
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
    Term.(ret (const run $ id_arg $ metrics_arg $ record_arg))

let all_cmd =
  let run metrics =
    check_targets
      (with_metrics ~label:"all" metrics (fun () ->
           Lvm_experiments.Experiments.run_all ppf))
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:"Run every experiment; exits 1 if any misses a target.")
    Term.(ret (const run $ metrics_arg))

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
  let seed = seed_arg ~doc:"PHOLD seed." 7 in
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
    else if schedulers <= 0 then `Error (false, "--schedulers must be positive")
    else if objects <= 0 then `Error (false, "--objects must be positive")
    else begin
    let app, initial, name =
      match workload with
      | `Phold ->
        ( Lvm_sim.Phold.app ~objects ~seed (),
          Lvm_sim.Phold.population ~objects ~population ~seed,
          "PHOLD" )
      | `Queueing ->
        ( Lvm_sim.Queueing.app ~stations:objects ~seed,
          Lvm_sim.Queueing.arrivals ~stations:objects ~customers:population
            ~seed,
          "queueing network" )
    in
    let inject f =
      List.iter (fun (time, dst, payload) -> f ~time ~dst ~payload) initial
    in
    with_metrics ~label:"sim" metrics (fun () ->
        match engine_kind with
        | `Conservative ->
          let e =
            Lvm_sim.Conservative.create ~n_schedulers:schedulers ~app ()
          in
          inject (Lvm_sim.Conservative.inject e);
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
          inject (Lvm_sim.Timewarp.inject engine);
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
    if txns <= 0 then `Error (false, "--txns must be positive")
    else
      `Ok (with_metrics ~label:"tpca" metrics (fun () -> run_tpca ~txns ~store))
  in
  Cmd.v (Cmd.info "tpca" ~doc:"Run the TPC-A debit-credit benchmark.")
    Term.(ret (const run $ txns $ store $ metrics_arg))

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
    if events <= 0 then `Error (false, "--events must be positive")
    else if s <= 0 || s mod 4 <> 0 then
      `Error (false, "--object-bytes must be a positive multiple of 4")
    else
      `Ok (with_metrics ~label:"synthetic" metrics (fun () ->
          run_synthetic ~events ~c ~s ~w strategy))
  in
  Cmd.v
    (Cmd.info "synthetic"
       ~doc:"Run the Section 4.3 synthetic simulation workload.")
    Term.(ret (const run $ events $ c $ s $ w $ strategy $ metrics_arg))

(* {1 crashsweep} *)

let crashsweep_cmd =
  let module C = Lvm_tpc.Crash_sweep in
  let names = List.map (fun (c : C.subject) -> c.name) C.subjects in
  let subjects_arg =
    Arg.(value
         & pos_all (enum (List.combine names C.subjects)) []
         & info [] ~docv:"SUBJECT"
             ~doc:("Sweep only these subjects (default: all): "
                   ^ String.concat ", " names ^ "."))
  in
  let show_trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Print each sweep's deterministic per-run recovery trace.")
  in
  let run subjects show_trace json =
    let pass (c : C.subject) =
      let o, problems = C.check c in
      let open Lvm_tools.Output_stream.Envelope in
      report ~json ~kind:"crashsweep"
        [ ("subject", String c.name); ("points", Int o.points);
          ("crashed", Int o.crashed); ("completed", Int o.completed);
          ("torn", Int o.torn);
          ("failures", List (List.map (fun p -> String p) problems)) ];
      if show_trace then Format.fprintf ppf "%s@?" o.trace;
      problems = []
    in
    let subjects = if subjects = [] then C.subjects else subjects in
    if List.mem false (List.map pass subjects) then exit 1
  in
  Cmd.v
    (Cmd.info "crashsweep"
       ~doc:"Run crash sweeps at their CI size, each twice: crash the \
             workload at every swept point, recover, check the \
             crash-consistency invariants and trace determinism. Exits 1 \
             on any problem.")
    Term.(const run $ subjects_arg $ show_trace $ json_arg)

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
  let open Lvm_tools.Output_stream.Envelope in
  report ~json ~kind:"logstats"
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
              (Lvm_machine.Log_record.version_to_string
                 d.Lvm_tools.Log_stats.version));
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

let logstats_cmd =
  let writes =
    Arg.(value & opt int 2000
         & info [ "writes" ] ~doc:"Logged writes to generate.")
  in
  let hot =
    Arg.(value & opt int 32
         & info [ "hot" ] ~doc:"Hot-set size in words (takes 80% of writes).")
  in
  let seed = seed_arg 11 in
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
  let run writes hot seed limit codec coalesce txn json =
    if writes <= 0 then `Error (false, "--writes must be positive")
    else if hot <= 0 then `Error (false, "--hot must be positive")
    else if coalesce < 0 then `Error (false, "--coalesce must be >= 0")
    else if txn <= 0 then `Error (false, "--txn must be positive")
    else
      `Ok (run_logstats ~writes ~hot ~seed ~limit ~codec ~coalesce ~txn ~json)
  in
  Cmd.v
    (Cmd.info "logstats"
       ~doc:"Run a skewed logged-write workload and report the Section \
             2.7 redundancy analysis, the logging-bandwidth diet \
             (codec/coalescing) counters, and the extent-ring state.")
    Term.(ret (const run $ writes $ hot $ seed $ limit $ codec $ coalesce
          $ txn $ json_arg))

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
  let seed = seed_arg 7 in
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
  let run shards txns cross writes seed group compute zipf split rate
      open_gap queue_cap read_heavy snap_readers as_of json metrics =
    if shards <= 0 then `Error (false, "--shards must be positive")
    else if txns <= 0 then `Error (false, "--txns must be positive")
    else if writes <= 0 then `Error (false, "--writes must be positive")
    else if cross < 0 || cross > 100 then
      `Error (false, "--cross must be a percentage")
    else if group <= 0 then `Error (false, "--group must be positive")
    else if rate < 0. then `Error (false, "--rate must be non-negative")
    else if queue_cap <> None && open_gap = None then
      `Error (false, "--queue-cap needs --open")
    else if (match snap_readers with Some n -> n <= 0 | None -> false) then
      `Error (false, "--snapshot-readers must be positive")
    else begin
      with_metrics ~label:"store" metrics (fun () ->
          let open Lvm_tools.Output_stream.Envelope in
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
          let read_mode, read_mode_name =
            match snap_readers with
            | Some _ -> (Lvm_store.Workload.Snapshot, "snapshot")
            | None -> (Lvm_store.Workload.Worker, "worker")
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
                read_mode;
                readers = Option.value snap_readers ~default:1 }
          in
          (* The time-travel probe: a handful of evenly spaced keys read
             through a snapshot pinned at the requested timestamp. *)
          let as_of_probe ts =
            match Lvm_store.Store.Snapshot.as_of st ~ts with
            | Error e ->
              Obj
                [ ("ts", Int ts);
                  ("error", String (Lvm.Lvm_error.to_string e)) ]
            | Ok snap ->
              let keys =
                (Lvm_store.Store.config st).Lvm_store.Store.Config.keys
              in
              let n = min 8 keys in
              let value key =
                match Lvm_store.Store.Snapshot.read snap key with
                | Ok v -> v
                | Error _ -> -1
              in
              let values =
                List.init n (fun i ->
                    let key = i * max 1 (keys / n) in
                    Obj [ ("key", Int key); ("value", Int (value key)) ])
              in
              Lvm_store.Store.Snapshot.release snap;
              Obj [ ("ts", Int ts); ("values", List values) ]
          in
          report ~json ~kind:"store"
            [ ("shards", Int shards); ("txns", Int txns);
              ("cross_pct", Int cross); ("seed", Int seed);
              ("group", Int group);
              ("zipf", Float (Option.value zipf ~default:0.));
              ("rate", Float rate);
              ("executed", Int r.Lvm_store.Workload.executed);
              ("reads", Int r.Lvm_store.Workload.reads);
              ("read_mode", String read_mode_name);
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
              ("as_of", Option.fold ~none:Null ~some:as_of_probe as_of) ]);
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
          $ read_heavy $ snap_readers $ as_of $ json_arg $ metrics_arg))

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
  let seed = seed_arg 7 in
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
            let open Lvm_tools.Output_stream.Envelope in
            report ~json ~kind:"fams"
              [ ("size", Int size); ("snaps", Int snaps);
                ("writes", Int writes); ("group", Int group);
                ("seed", Int seed); ("wall_cycles", Int wall);
                ("cycles_per_snapshot",
                 Float (float_of_int wall /. float_of_int snaps));
                ("spans", Int !spans); ("bytes", Int !bytes);
                ("forces", Int !forces) ])
      with
      | () -> `Ok ()
      | exception Failed e -> `Error (false, Lvm.Lvm_error.to_string e)
    end
  in
  Cmd.v
    (Cmd.info "fams"
       ~doc:"Run a plain-write + snapshot workload through the \
             failure-atomic snapshot API and report persistence costs.")
    Term.(ret (const run $ size $ snaps $ writes $ group $ seed $ json_arg
          $ metrics_arg))

(* {1 repl} *)

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
  let seed = seed_arg ~doc:"Workload and fault-plan seed." 42 in
  let profile =
    Arg.(value
         & opt
             (enum
                [ ("none", None); ("drop", Some 0); ("delay", Some 1);
                  ("reorder", Some 2); ("chaos", Some 3) ])
             (Some 3)
         & info [ "profile" ] ~docv:"PROFILE"
             ~doc:"Transport-fault profile: none, or the replication crash \
                   sweep's drop, delay (+ duplicate), reorder or chaos \
                   (everything at once) plan.")
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
  let run replicas txns seed profile kill_at no_kill json metrics =
    let kill =
      if no_kill then None else Some (Option.value kill_at ~default:(txns / 2))
    in
    if replicas <= 0 then `Error (false, "--replicas must be positive")
    else if txns <= 0 then `Error (false, "--txns must be positive")
    else if (match kill with Some k -> k < 0 || k >= txns | None -> false) then
      `Error (false, "--kill-at must name one of the --txns transactions")
    else begin
      with_metrics ~label:"repl" metrics (fun () ->
          let plan =
            Option.map (Lvm_tpc.Crash_sweep.repl_net_plan ~seed) profile
          in
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
          let promo = ref None in
          for j = 0 to txns - 1 do
            commit j;
            if Some j = kill then begin
              Repl.step ~ticks:2 cl;
              Repl.kill_primary cl;
              Repl.step ~ticks:4 cl;
              promo := Some (Repl.promote cl)
            end
          done;
          let converged = Repl.sync cl in
          let s = Repl.stats cl in
          let open Lvm_tools.Output_stream.Envelope in
          let failover =
            match !promo with
            | None -> Obj [ ("killed", Int 0) ]
            | Some p ->
              Obj
                [ ("killed", Int 1);
                  ("new_primary", Int p.Repl.new_primary);
                  ("new_epoch", Int p.Repl.new_epoch);
                  ("applied_bytes", Int p.Repl.applied_bytes);
                  ("folded_bytes", Int p.Repl.folded_bytes);
                  ("failover_ticks", Int p.Repl.failover_ticks) ]
          in
          let replica (r : Repl.replica_stat) =
            Obj
              [ ("id", Int r.rid); ("alive", Bool r.alive);
                ("connected", Bool r.connected); ("attached", Bool r.attached);
                ("applied", Int r.applied); ("acked", Int r.acked);
                ("lag", Int r.lag) ]
          in
          report ~json ~kind:"repl"
            [ ("replicas", Int replicas); ("txns", Int txns);
              ("seed", Int seed); ("converged", Int (Bool.to_int converged));
              ("epoch", Int s.Repl.s_epoch);
              ("stream_end", Int s.Repl.s_stream_end);
              ("base", Int s.Repl.s_base);
              ("min_acked", Int s.Repl.s_min_acked);
              ("frames_sent", Int s.Repl.frames_sent);
              ("frames_dropped", Int s.Repl.frames_dropped);
              ("retransmits", Int s.Repl.retransmits);
              ("resyncs", Int s.Repl.resyncs);
              ("fenced", Int s.Repl.fenced);
              ("failover", failover);
              ("now", Int s.Repl.s_now);
              ("primary", String s.Repl.s_primary);
              ("frames_delivered", Int s.Repl.frames_delivered);
              ("frames_delayed", Int s.Repl.frames_delayed);
              ("frames_duped", Int s.Repl.frames_duped);
              ("frames_reordered", Int s.Repl.frames_reordered);
              ("acks", Int s.Repl.acks);
              ("heartbeats", Int s.Repl.heartbeats);
              ("hellos", Int s.Repl.hellos);
              ("disconnects", Int s.Repl.disconnects);
              ("detaches", Int s.Repl.detaches);
              ("promotions", Int s.Repl.promotions);
              ("standbys",
               List (Array.to_list (Array.map replica s.Repl.s_replicas))) ];
          if not converged then exit 1);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:"Replicate a transactional workload to hot standbys over a \
             faulty transport, optionally failing over mid-stream.")
    Term.(ret (const run $ replicas $ txns $ seed $ profile $ kill_at
          $ no_kill $ json_arg $ metrics_arg))

let main =
  Cmd.group
    (Cmd.info "lvmctl" ~version:"1.0.0"
       ~doc:"Logged Virtual Memory (SOSP '95) reproduction driver.")
    [ list_cmd; exp_cmd; all_cmd; sim_cmd; tpca_cmd; synthetic_cmd;
      crashsweep_cmd; logstats_cmd; store_cmd; fams_cmd; repl_cmd;
      trace_cmd ]

let () = exit (Cmd.eval main)
