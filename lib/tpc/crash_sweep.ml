open Lvm_vm

(* One engine, five subjects. A sweep is a header line plus a list of
   labelled schedules; [sweep] runs each and folds the per-schedule
   results into an [outcome]. Four subjects (TPC-A over RLVM, the
   sharded store, FAMS snapshots, the shard-move protocol) are machine
   fault plans run by [run_plan] over a [subject] record; replication
   has its own kill/promote body but shares the fold.

   Every plan subject checks the same contract against a host-side
   model: a completed run matches the model exactly; a crashed run
   recovers, recovers again (the two images must agree — replay is
   idempotent) and then lands on a state the subject's checker accepts:
   the committed prefix, or that prefix plus the in-flight unit of work
   applied in full — never a mixture. *)

type outcome = {
  points : int;
  crashed : int;
  completed : int;
  torn : int;
  failures : string list; (* invariant violations; empty = pass *)
  trace : string; (* deterministic per-run log, for byte-equality checks *)
}

(* {1 The engine} *)

(* Fold [run ~label schedule] over the labelled schedules. Each run
   returns (trace line, failure option, crashed?, torn tail?). *)
let sweep ~header ~run schedules =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  let failures = ref [] and crashed = ref 0 and torn = ref 0 in
  List.iter
    (fun (label, schedule) ->
      let line, failure, did_crash, did_torn = run ~label schedule in
      Buffer.add_string buf line;
      Option.iter (fun f -> failures := f :: !failures) failure;
      if did_crash then incr crashed;
      if did_torn then incr torn)
    schedules;
  let points = List.length schedules in
  {
    points;
    crashed = !crashed;
    completed = points - !crashed;
    torn = !torn;
    failures = List.rev !failures;
    trace = Buffer.contents buf;
  }

(* A subject under machine fault plans. ['s] is one fresh machine plus
   its host-side model; ['image] is the recovered state compared across
   the two recoveries. *)
type ('s, 'image) subject = {
  build : unit -> 's;
  kernel : 's -> Kernel.t;
  clock : Kernel.t -> int; (* reference-run length: time or max_time *)
  workload : 's -> unit;
  recover : 's -> string * bool; (* crash-line text, torn tail truncated? *)
  image : 's -> 'image;
  check : crashed:bool -> 's -> (string, string) result;
}

(* One run of [s] under one plan. *)
let run_plan s ~label plan =
  let st = s.build () in
  let m = Kernel.machine (s.kernel st) in
  let failure d = Some (label ^ ": " ^ d) in
  Lvm_machine.Machine.set_fault_plan m (Some plan);
  match s.workload st with
  | () -> (
    (* The harness's own verification reads must not trip a still-armed
       injection (e.g. a crash point past the workload's last boundary). *)
    Lvm_machine.Machine.set_fault_plan m None;
    match s.check ~crashed:false st with
    | Ok _ ->
      (Printf.sprintf "%s completed state=ok\n" label, None, false, false)
    | Error d ->
      ( Printf.sprintf "%s completed state=FAIL %s\n" label d,
        failure d, false, false ))
  | exception Lvm_fault.Fault.Crashed { cycle; site } -> (
    Lvm_machine.Machine.set_fault_plan m None;
    let report, torn = s.recover st in
    let base =
      Printf.sprintf "%s crashed cycle=%d site=%s %s" label cycle
        (Lvm_fault.Fault.site_name site) report
    in
    let first = s.image st in
    ignore (s.recover st);
    let second = s.image st in
    match s.check ~crashed:true st with
    | Ok which when first = second ->
      (Printf.sprintf "%s state=ok(%s)\n" base which, None, true, torn)
    | Ok _ ->
      let d = "recovery not idempotent" in
      (Printf.sprintf "%s state=FAIL %s\n" base d, failure d, true, torn)
    | Error d ->
      (Printf.sprintf "%s state=FAIL %s\n" base d, failure d, true, torn))

let torn_plan ~nth ~keep =
  Lvm_fault.Plan.create
    [ { Lvm_fault.Plan.site = Lvm_fault.Fault.Ramdisk_write;
        trigger = Lvm_fault.Plan.At_count nth;
        fault = Lvm_fault.Fault.Torn_write { keep } } ]

(* [n] crashes at the 1st..nth occurrence of a fault site, labelled
   [name=j]: the subject-specific extras (FAMS boundary forces, split
   cutovers). *)
let site_crashes ~name site n =
  List.init n (fun j ->
      let nth = j + 1 in
      ( Printf.sprintf "%s=%d" name nth,
        Lvm_fault.Plan.create
          [ { Lvm_fault.Plan.site; trigger = Lvm_fault.Plan.At_count nth;
              fault = Lvm_fault.Fault.Crash } ] ))

(* The shared schedule: a reference run measures the workload's length,
   then [points] evenly-spaced crash cycles over it, [torn_points] torn
   WAL appends with varying torn lengths, and the subject's [extra]
   fault-site plans. [header] renders the first trace line from the
   reference length. *)
let sweep_subject s ~header ~points ~torn_points ?(extra = []) () =
  let total =
    let st = s.build () in
    s.workload st;
    s.clock (s.kernel st)
  in
  let crashes =
    List.init points (fun i ->
        let at = 1 + (i * (total - 1) / max 1 (points - 1)) in
        (Printf.sprintf "point=%d at=%d" i at, Lvm_fault.Plan.crash_at at))
  in
  let tears =
    List.init torn_points (fun j ->
        let nth = j + 1 in
        let keep = 1 + (nth * 7 mod 23) in
        (Printf.sprintf "torn=%d keep=%d" nth keep, torn_plan ~nth ~keep))
  in
  sweep ~header:(header total) ~run:(run_plan s) (crashes @ tears @ extra)

(* {1 TPC-A over RLVM}

   The workload is the TPC-A driver; the model tracks committed words
   and the in-flight transaction's staged writes:

   - outside a commit, the recovered state must equal the model exactly
     (uncommitted writes invisible);
   - during a commit, it must equal either the model or the model with
     the transaction's staged writes applied — the atomicity boundary —
     and nothing in between (committed writes durable, partial
     application forbidden). *)

let bank () = Bank.layout ~branches:2 ~tellers:4 ~accounts:32 ~history:16

type run_state = {
  b : Bank.t;
  r : Lvm_rvm.Rlvm.t;
  store : Tpca.store;
  model : int array; (* committed words, host-side truth *)
  forced : int array; (* words covered by a WAL force: crash-durable *)
  staged : (int * int) list ref; (* newest first; current txn's writes *)
  in_commit : bool ref;
}

let build ?cpus ~group () =
  let k = Kernel.create ?cpus () in
  let sp = Kernel.create_space k in
  let b = bank () in
  let size = Bank.segment_bytes b in
  let r =
    Lvm_rvm.Rlvm.make { Lvm_rvm.Rlvm.Config.default with group } k sp ~size
  in
  let base = Tpca.rlvm_store r in
  let model = Array.make (size / 4) 0 in
  let forced = Array.make (size / 4) 0 in
  let staged = ref [] in
  let in_commit = ref false in
  let apply_staged () =
    List.iter (fun (off, v) -> model.(off / 4) <- v) (List.rev !staged);
    staged := []
  in
  let store =
    {
      base with
      Tpca.begin_txn =
        (fun () ->
          staged := [];
          base.Tpca.begin_txn ());
      write_word =
        (fun ~off v ->
          staged := (off, v land 0xFFFFFFFF) :: !staged;
          base.Tpca.write_word ~off v);
      commit =
        (fun () ->
          in_commit := true;
          base.Tpca.commit ();
          in_commit := false;
          apply_staged ();
          (* Under group commit the WAL force trails the commit: only
             once the batcher has flushed is the committed state
             crash-durable. With group 1 every commit forces, so
             [forced] tracks [model] exactly. *)
          if Lvm_rvm.Rlvm.pending_commits r = 0 then
            Array.blit model 0 forced 0 (Array.length model));
    }
  in
  { b; r; store; model; forced; staged; in_commit }

let run_workload st ~seed ~txns =
  Tpca.setup st.store st.b;
  let rng = Random.State.make [| seed |] in
  for i = 0 to txns - 1 do
    Tpca.transaction st.store st.b ~rng ~history_slot:i
  done

let rlvm_image st =
  Array.init (Array.length st.model) (fun i ->
      Lvm_rvm.Rlvm.read_word st.r ~off:(i * 4))

(* Compare the store against the model, or (inside a commit) against the
   model with the staged transaction applied. After a crash under group
   commit, unforced batches legitimately roll back, so the last {e
   forced} state is acceptable too; with group 1 [forced] always equals
   [model] and the extra acceptance is unreachable, keeping the sweep's
   trace byte-identical to the ungrouped harness. *)
let check_state ~crashed st =
  let n = Array.length st.model in
  let actual = rlvm_image st in
  let plus_staged =
    let m = Array.copy st.model in
    List.iter (fun (off, v) -> m.(off / 4) <- v) (List.rev !(st.staged));
    m
  in
  if actual = st.model then Ok "committed"
  else if !(st.in_commit) && actual = plus_staged then Ok "committed+txn"
  else if crashed && actual = st.forced then Ok "forced"
  else
    let rec find i =
      if i = n then "?"
      else if actual.(i) <> st.model.(i)
              && (not !(st.in_commit) || actual.(i) <> plus_staged.(i))
              && (not crashed || actual.(i) <> st.forced.(i))
      then Printf.sprintf "word %d: got %d model %d" i actual.(i) st.model.(i)
      else find (i + 1)
    in
    Error (find 0)

let tpca_subject ?cpus ~group ~seed ~txns () =
  {
    build = build ?cpus ~group;
    kernel = (fun st -> Lvm_rvm.Rlvm.kernel st.r);
    clock = Kernel.time;
    workload = run_workload ~seed ~txns;
    recover =
      (fun st ->
        let report = Lvm_rvm.Rlvm.recover st.r in
        ( Printf.sprintf "in_commit=%b %s" !(st.in_commit)
            (Lvm_rvm.Ramdisk.recovery_to_string report),
          report.Lvm_rvm.Ramdisk.truncated_bytes > 0 ));
    image = rlvm_image;
    check = check_state;
  }

(* {1 Sharded store}

   With [shards > 1] the subject is an [Lvm_store] sharded store: the
   workload mixes single-shard transactions with cross-shard two-phase
   commits (every third transaction), keys chosen so each transaction's
   writes are distinct words. The host-side model tracks committed
   transactions; the in-flight transaction's writes are the [staged]
   set, and a crashed run must recover to the model exactly, or to the
   model plus the whole staged set — all-or-nothing across every shard
   the transaction touched. Group commit is not swept here (the store
   runs with group 1), so the committed prefix is always durable. *)

module Store = Lvm_store.Store

type store_state = {
  st : Store.t;
  model : int array; (* committed key values, host-side truth *)
  staged : (int * int) list ref; (* the in-flight transaction's writes *)
}

let store_slots = 8 (* keys per shard *)

let build_store ~shards () =
  let st =
    Store.create
      { Store.Config.default with
        shards;
        keys = shards * store_slots;
        group = 1;
        log_pages = 4;
        compute = 40 }
  in
  { st; model = Array.make (shards * store_slots) 0; staged = ref [] }

(* Transaction [j] of the seeded workload: every third is cross-shard
   (two participants, two writes each), the rest single-shard (two
   writes). Slot indices 2j and 2j+1 keep each transaction's writes on
   distinct words. *)
let store_txn ~shards ~seed j =
  let value idx = ((seed * 31) + (j * 97) + (idx * 13) + 5) land 0xFFFFFF in
  let key s slot = s + (shards * (slot mod store_slots)) in
  let cross = shards > 1 && j mod 3 = 2 in
  if cross then
    let a = j mod shards and b = (j + 1) mod shards in
    [ (key a (2 * j), value 0); (key a ((2 * j) + 1), value 1);
      (key b (2 * j), value 2); (key b ((2 * j) + 1), value 3) ]
  else
    let s = j mod shards in
    [ (key s (2 * j), value 0); (key s ((2 * j) + 1), value 1) ]

let err = Lvm.Lvm_error.to_string

(* The sweep's probes want the bare word; a read refusal here is a
   harness bug, not a legal crash outcome. *)
let read_word st key =
  match Store.read st key with
  | Ok v -> v
  | Error e -> failwith ("crash sweep read: " ^ err e)

let run_store_workload ss ~shards ~seed ~txns =
  for j = 0 to txns - 1 do
    let writes = store_txn ~shards ~seed j in
    ss.staged := writes;
    (match Store.exec ss.st ~writes with
    | Ok () ->
      List.iter (fun (key, v) -> ss.model.(key) <- v) writes;
      ss.staged := []
    | Error e -> failwith ("store sweep exec: " ^ err e));
  done

let store_image ss =
  Array.init (Array.length ss.model) (fun key -> read_word ss.st key)

let check_store_state ss =
  let n = Array.length ss.model in
  let actual = store_image ss in
  let plus_staged =
    let m = Array.copy ss.model in
    List.iter (fun (key, v) -> m.(key) <- v) !(ss.staged);
    m
  in
  if actual = ss.model then Ok "committed"
  else if !(ss.staged) <> [] && actual = plus_staged then Ok "committed+txn"
  else
    let rec find k =
      if k = n then "?"
      else if actual.(k) <> ss.model.(k) && actual.(k) <> plus_staged.(k)
      then
        Printf.sprintf "key %d: got %d model %d staged %d" k actual.(k)
          ss.model.(k) plus_staged.(k)
      else find (k + 1)
    in
    Error (find 0)

let store_recover ss =
  let report = Store.recover ss.st in
  ( Store.recovery_to_string report,
    report.Store.coordinator.Lvm_rvm.Ramdisk.truncated_bytes > 0
    || Array.exists
         (fun (r : Lvm_rvm.Ramdisk.recovery) -> r.truncated_bytes > 0)
         report.Store.shard_reports )

let store_subject ~shards ~seed ~txns =
  {
    build = build_store ~shards;
    kernel = (fun ss -> Store.kernel ss.st);
    clock = Kernel.max_time;
    workload = run_store_workload ~shards ~seed ~txns;
    recover = store_recover;
    image = store_image;
    check = (fun ~crashed:_ -> check_store_state);
  }

let run ?(seed = 42) ?(txns = 12) ?(points = 200) ?(torn_points = 24) ?cpus
    ?(group = 1) ?(shards = 1) () =
  if shards > 1 then
    sweep_subject (store_subject ~shards ~seed ~txns) ~points ~torn_points
      ~header:(fun total ->
        Printf.sprintf "crashsweep seed=%d txns=%d total_cycles=%d shards=%d\n"
          seed txns total shards)
      ()
  else
    sweep_subject (tpca_subject ?cpus ~group ~seed ~txns ()) ~points
      ~torn_points
      ~header:(fun total ->
        Printf.sprintf "crashsweep seed=%d txns=%d total_cycles=%d%s\n" seed
          txns total
          (if group = 1 then "" else Printf.sprintf " group=%d" group))
      ()

(* {1 Replication}

   The subject is an [Lvm_repl] cluster: a primary streaming its WAL to
   hot standbys over the faulty transport, every schedule driven by a
   distinct seeded net-fault plan (drop/delay/duplicate/reorder at the
   [Net_frame]/[Net_ack] sites). Kill schedules fail-stop the primary
   after transaction [k] plus a few sub-ticks — frames still in flight —
   let the survivors drain, promote, and check prefix consistency
   against the host-side model:

   - the promoted replica serves exactly [models.(jstar)], where [jstar]
     is the last transaction whose stream bytes it had applied — committed
     transactions are never half-applied and the dead primary's
     uncommitted tail is dropped;
   - [j*] is at least the last transaction the primary had seen acked
     by that replica — nothing acknowledged is ever lost;
   - a second recovery on the promoted node is a no-op (idempotence:
     any re-sent unacked tail re-applies harmlessly);
   - the new primary then serves more transactions and every surviving
     standby converges to it (catch-up/resync under the same faults).

   Fault-only schedules skip the kill and check that the cluster
   converges to the full workload despite the transport faults. These
   schedules are transport plans, not machine crashes, so they have
   their own body and share only the fold. *)

module Repl = Lvm_repl

let repl_value ~seed ~j ~idx =
  ((seed * 31) + (j * 97) + (idx * 13) + 5) land 0xFFFFFF

let repl_writes ~keys ~seed j =
  [ (j mod keys, repl_value ~seed ~j ~idx:0);
    (((j * 7) + 3) mod keys, repl_value ~seed ~j ~idx:1) ]

(* Schedule [i]'s transport profile: every kind is represented across
   the sweep, probabilities rotate so no two schedules see the same
   fault stream, and the PRNG seed differs per schedule. *)
let repl_net_plan ~seed i =
  let open Lvm_fault in
  let p base k = base +. (float_of_int ((i * k) mod 5) /. 50.0) in
  let inj site trigger fault = { Plan.site; trigger; fault } in
  let frame = Fault.Net_frame and ack = Fault.Net_ack in
  let injections =
    match i mod 4 with
    | 0 ->
      (* drop-heavy *)
      [ inj frame (Plan.With_probability (p 0.15 3)) Fault.Net_drop;
        inj ack (Plan.With_probability (p 0.10 7)) Fault.Net_drop ]
    | 1 ->
      (* delay + duplicate *)
      [ inj frame
          (Plan.With_probability (p 0.15 5))
          (Fault.Net_delay { ticks = 2 + (i mod 4) });
        inj frame (Plan.With_probability (p 0.08 7)) Fault.Net_dup;
        inj ack
          (Plan.With_probability (p 0.10 11))
          (Fault.Net_delay { ticks = 1 + (i mod 3) }) ]
    | 2 ->
      (* reorder-heavy *)
      [ inj frame (Plan.With_probability (p 0.15 7)) Fault.Net_reorder;
        inj frame (Plan.With_probability (p 0.05 3)) Fault.Net_dup;
        inj ack (Plan.With_probability (p 0.08 5)) Fault.Net_reorder ]
    | _ ->
      (* everything at once *)
      [ inj frame (Plan.With_probability (p 0.08 3)) Fault.Net_drop;
        inj frame
          (Plan.With_probability (p 0.08 5))
          (Fault.Net_delay { ticks = 1 + (i mod 4) });
        inj frame (Plan.With_probability (p 0.05 7)) Fault.Net_dup;
        inj frame (Plan.With_probability (p 0.05 11)) Fault.Net_reorder;
        inj ack (Plan.With_probability (p 0.08 13)) Fault.Net_drop;
        inj ack (Plan.With_probability (p 0.05 17)) Fault.Net_dup ]
  in
  Plan.create ~seed:((seed * 1000) + i) injections

let repl_snapshot cl =
  Array.init (Repl.keys cl) (fun key -> Repl.read cl key)

(* One schedule. [kill = Some (k, s)]: fail-stop the primary [s] ticks
   after transaction [k] committed, promote, verify, then serve
   [post_txns] more transactions and require convergence. [kill = None]:
   run the whole workload and require convergence. Returns
   (trace line, failure option, killed?, resynced?). *)
let run_one_repl ~seed ~txns ~replicas ~post_txns ~gap ~label (index, kill) =
  let plan = repl_net_plan ~seed index in
  let cl =
    Repl.create ~plan
      { Repl.Config.default with replicas; timeout = 8; heartbeat_every = 3 }
  in
  let keys = Repl.keys cl in
  let model = Array.make keys 0 in
  let models = Array.make (txns + 1) [||] in
  let ends = Array.make (txns + 1) 0 in
  models.(0) <- Array.copy model;
  ends.(0) <- Repl.stream_end cl;
  let fail = ref None in
  let note d = if !fail = None then fail := Some (label ^ ": " ^ d) in
  let run_txn j =
    (match Repl.exec cl ~writes:(repl_writes ~keys ~seed j) with
    | Ok () ->
      List.iter (fun (k, v) -> model.(k) <- v) (repl_writes ~keys ~seed j)
    | Error e -> note ("exec: " ^ Lvm.Lvm_error.to_string e));
    models.(j + 1) <- Array.copy model;
    ends.(j + 1) <- Repl.stream_end cl;
    Repl.step ~ticks:gap cl
  in
  let check_standbys ~what target =
    for i = 0 to replicas - 1 do
      if Repl.replica_alive cl i && Repl.promoted cl <> Some i then
        for key = 0 to keys - 1 do
          if Repl.replica_read cl i key <> target.(key) then
            note
              (Printf.sprintf "%s: replica %d key %d: got %d want %d" what i
                 key
                 (Repl.replica_read cl i key)
                 target.(key))
        done
    done
  in
  let finish ~resynced extra =
    let s = Repl.stats cl in
    let line =
      Printf.sprintf
        "%s %s epoch=%d sent=%d dropped=%d duped=%d reordered=%d \
         retrans=%d resyncs=%d fenced=%d state=%s\n"
        label extra s.Repl.s_epoch s.Repl.frames_sent s.Repl.frames_dropped
        s.Repl.frames_duped s.Repl.frames_reordered s.Repl.retransmits
        s.Repl.resyncs s.Repl.fenced
        (match !fail with None -> "ok" | Some _ -> "FAIL")
    in
    (line, !fail, kill <> None, resynced)
  in
  match kill with
  | None ->
    for j = 0 to txns - 1 do
      run_txn j
    done;
    if not (Repl.sync cl) then note "no convergence"
    else begin
      if repl_snapshot cl <> models.(txns) then note "primary state drifted";
      check_standbys ~what:"converged" model;
      if Repl.epoch cl <> 1 then note "unexpected failover"
    end;
    finish
      ~resynced:((Repl.stats cl).Repl.resyncs > 0)
      (Printf.sprintf "completed txns=%d" txns)
  | Some (k, s) ->
    for j = 0 to k do
      run_txn j
    done;
    Repl.step ~ticks:s cl;
    let committed = k + 1 in
    let acked_at_kill =
      Array.init replicas (fun i -> Repl.replica_acked cl i)
    in
    Repl.kill_primary cl;
    (* the dead window: in-flight frames drain, detectors fire *)
    Repl.step ~ticks:(4 + (index mod 5)) cl;
    let p = Repl.promote cl in
    let win = p.Repl.new_primary in
    (* the last transaction whose stream bytes fit in [bytes] *)
    let prefix bytes =
      let rec go j =
        if j >= 0 && ends.(j) <= bytes then j
        else if j < 0 then 0
        else go (j - 1)
      in
      go committed
    in
    let jstar = prefix p.Repl.applied_bytes in
    let jack = prefix acked_at_kill.(win) in
    if jstar < jack then
      note
        (Printf.sprintf "acked txn lost: applied prefix %d < acked prefix %d"
           jstar jack);
    let served = repl_snapshot cl in
    if served <> models.(jstar) then
      note
        (Printf.sprintf
           "promoted state is not the committed prefix %d (applied=%d)" jstar
           p.Repl.applied_bytes);
    (* double recovery must change nothing *)
    Repl.rerecover cl;
    if repl_snapshot cl <> served then note "second recovery not idempotent";
    (* life goes on: new primary serves, survivors converge *)
    let model2 = Array.copy models.(jstar) in
    for j = 0 to post_txns - 1 do
      let writes = repl_writes ~keys ~seed:(seed + 7919) (txns + j) in
      (match Repl.exec cl ~writes with
      | Ok () -> List.iter (fun (key, v) -> model2.(key) <- v) writes
      | Error e -> note ("post exec: " ^ Lvm.Lvm_error.to_string e));
      Repl.step ~ticks:gap cl
    done;
    if replicas > 1 then begin
      if not (Repl.sync cl) then note "no post-failover convergence"
      else check_standbys ~what:"post-failover" model2
    end;
    if repl_snapshot cl <> model2 then note "post-failover primary drifted";
    finish
      ~resynced:((Repl.stats cl).Repl.resyncs > 0)
      (Printf.sprintf "killed after=%d sub=%d promoted=%d jstar=%d \
                       failover_ticks=%d"
         k s win jstar p.Repl.failover_ticks)

(* [crashed] counts kill schedules, [completed] fault-only ones and
   [torn] the schedules that needed a full-state resync. *)
let run_repl ?(seed = 42) ?(txns = 10) ?(kill_points = 84) ?(fault_only = 16)
    ?(replicas = 2) ?(post_txns = 3) () =
  let kills =
    List.init kill_points (fun i ->
        let k = i mod txns and s = i * 3 mod 7 in
        (Printf.sprintf "kill=%d after=%d sub=%d" i k s, (i, Some (k, s))))
  in
  let faults =
    List.init fault_only (fun i ->
        (Printf.sprintf "faults=%d" i, (kill_points + i, None)))
  in
  sweep
    ~header:
      (Printf.sprintf
         "replsweep seed=%d txns=%d kill_points=%d fault_only=%d replicas=%d\n"
         seed txns kill_points fault_only replicas)
    ~run:(run_one_repl ~seed ~txns ~replicas ~post_txns ~gap:3)
    (kills @ faults)

(* {1 FAMS}

   The subject is one or more [Lvm_fams] snapshot regions on one machine:
   plain writes accumulate, [snapshot] persists the modification set
   atomically. The host-side model per region is the sequence of boundary
   states (region content at each completed snapshot, starting from the
   all-zero state) plus the in-flight snapshot image while [snapshot] is
   executing. A crashed run must recover each region to exactly one of:

   - a registered boundary no older than the last {e forced} one (group
     commit may roll back unforced boundaries, never forced ones);
   - the in-flight image, when the crash landed inside [snapshot] and the
     boundary record made it to disk.

   Nothing else is acceptable — in particular, no state containing plain
   writes issued after the newest boundary (never made durable), and no
   mixture of two boundaries (torn snapshot). *)

module Fams = Lvm_fams

type fams_region = {
  f : Fams.t;
  current : int array; (* host model of the working view *)
  mutable boundaries : int array list; (* newest first; last = zeros *)
  mutable completed : int; (* snapshots registered *)
  mutable forced_idx : int; (* newest boundary known forced *)
  mutable in_flight : int array option; (* image [snapshot] is persisting *)
}

type fams_state = { fk : Kernel.t; rs : fams_region array }

let fams_words = 64
let fams_size = fams_words * 4

let fams_unwrap what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Lvm.Lvm_error.to_string e)

let build_fams ~group ~regions () =
  let k = Kernel.create () in
  let sp = Kernel.create_space k in
  let rs =
    Array.init regions (fun _ ->
        let f =
          fams_unwrap "fams sweep map"
            (Fams.map
               { Fams.Config.default with log_pages = 4; group }
               k sp ~size:fams_size)
        in
        { f; current = Array.make fams_words 0;
          boundaries = [ Array.make fams_words 0 ];
          completed = 0; forced_idx = 0; in_flight = None })
  in
  { fk = k; rs }

let fams_value ~seed ~epoch ~region i =
  ((seed * 31) + (epoch * 97) + (region * 389) + (i * 13) + 5) land 0xFFFFFF

(* Epoch [e]: every region takes [writes] plain writes (distinct words
   per epoch, wrapping), then region [e mod regions] snapshots. Regions
   snapshot in turn, so with [regions > 1] a crash always finds some
   region with un-snapshotted writes. *)
let run_fams_workload ~seed ~snaps ~writes fs =
  let regions = Array.length fs.rs in
  for epoch = 0 to snaps - 1 do
    Array.iteri
      (fun ri r ->
        for w = 0 to writes - 1 do
          let i = ((epoch * writes) + w + (ri * 7)) mod fams_words in
          let v = fams_value ~seed ~epoch ~region:ri i in
          fams_unwrap "fams sweep write" (Fams.write_word r.f ~off:(i * 4) v);
          r.current.(i) <- v
        done)
      fs.rs;
    let r = fs.rs.(epoch mod regions) in
    r.in_flight <- Some (Array.copy r.current);
    let rep = fams_unwrap "fams sweep snapshot" (Fams.snapshot r.f) in
    r.boundaries <- Array.copy r.current :: r.boundaries;
    r.completed <- r.completed + 1;
    if rep.Fams.forced then r.forced_idx <- r.completed;
    r.in_flight <- None
  done

let fams_actual r =
  Array.init fams_words (fun i ->
      fams_unwrap "fams sweep read" (Fams.read_word r.f ~off:(i * 4)))

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let check_fams_region ~crashed ri r =
  let actual = fams_actual r in
  if not crashed then
    if actual = r.current then Ok "working"
    else Error (Printf.sprintf "region %d: completed run lost writes" ri)
  else
    let reachable = take (r.completed - r.forced_idx + 1) r.boundaries in
    if (match r.in_flight with Some a -> actual = a | None -> false) then
      Ok "in-flight"
    else
      match List.mapi (fun j b -> (r.completed - j, b)) reachable
            |> List.find_opt (fun (_, b) -> b = actual)
      with
      | Some (j, _) ->
        Ok (if j = r.completed then "boundary" else
              Printf.sprintf "boundary-%d" (r.completed - j))
      | None ->
        let newest = List.hd r.boundaries in
        let rec diff i =
          if i = fams_words then "?"
          else if actual.(i) <> newest.(i) then
            Printf.sprintf "word %d: got %d newest boundary %d" i actual.(i)
              newest.(i)
          else diff (i + 1)
        in
        Error
          (Printf.sprintf
             "region %d: not a reachable snapshot state (completed=%d \
              forced=%d): %s"
             ri r.completed r.forced_idx (diff 0))

let check_fams ~crashed fs =
  let results =
    Array.to_list (Array.mapi (check_fams_region ~crashed) fs.rs)
  in
  match List.find_opt (function Error _ -> true | Ok _ -> false) results with
  | Some (Error _ as e) -> e
  | _ ->
    Ok
      (String.concat ","
         (List.map (function Ok w -> w | Error _ -> "?") results))

let recover_fams fs =
  let torn = ref false in
  Array.iter
    (fun r ->
      let rep = fams_unwrap "fams sweep recover" (Fams.recover r.f) in
      if rep.Lvm_rvm.Ramdisk.truncated_bytes > 0 then torn := true)
    fs.rs;
  ( "completed="
    ^ String.concat ","
        (Array.to_list (Array.map (fun r -> string_of_int r.completed) fs.rs)),
    !torn )

let run_fams ?(seed = 42) ?(snaps = 10) ?(writes = 8) ?(points = 120)
    ?(torn_points = 16) ?(force_points = 8) ?(group = 1) ?(regions = 1) () =
  sweep_subject
    {
      build = build_fams ~group ~regions;
      kernel = (fun fs -> fs.fk);
      clock = Kernel.time;
      workload = run_fams_workload ~seed ~snaps ~writes;
      recover = recover_fams;
      image = (fun fs -> Array.map fams_actual fs.rs);
      check = check_fams;
    }
    ~points ~torn_points
    ~extra:
      (site_crashes ~name:"force" Lvm_fault.Fault.Ramdisk_force force_points)
    ~header:(fun total ->
      Printf.sprintf
        "famssweep seed=%d snaps=%d writes=%d total_cycles=%d group=%d \
         regions=%d\n"
        seed snaps writes total group regions)
    ()

(* {1 Split cutover}

   The subject is the sharded store again, but the scripted schedule
   interleaves ordinary transactions with a full shard-move lifecycle
   (split half of shard 0's buckets to shard 1, then merge them home):
   warm-up txns, [move_begin] (the forced split intent), incremental
   copy steps with txns between them (dirty-set tracking), a drain with
   a deliberate moved-key write (must be refused with [Moved]), the
   cutover, a txn in the cutover-durable-but-unretired window, the
   retire, more txns, then the merge. Crash points sweep the whole
   schedule plus the [Split_cutover] fault site itself, and every
   crashed run must recover to:

   - all keys readable with their host-model values (the usual
     atomicity contract — a mid-copy crash must not expose the target's
     partial copy);
   - a routing table that is exactly the pre-move or the post-move
     table, never a mixture — every bucket has exactly one owner;
   - an idempotent second recovery (state and route both);
   - a store that still commits: a probe transaction on a moved bucket
     and one on an unmoved bucket both read back. *)

(* The buckets the split moves: the first half of shard 0's. *)
let split_buckets ss =
  let owned = Store.shard_buckets ss.st 0 in
  let half = (List.length owned + 1) / 2 in
  List.filteri (fun i _ -> i < half) owned

(* The scripted schedule. Transaction values come from [store_txn];
   writes refused with [Moved] during the drain are deterministic
   skips, any other refusal is a harness bug. *)
let run_split_schedule ~shards ~seed (ss, buckets) =
  let j = ref 0 in
  let txn () =
    let writes = store_txn ~shards ~seed !j in
    incr j;
    ss.staged := writes;
    (match Store.exec ss.st ~writes with
    | Ok () -> List.iter (fun (key, v) -> ss.model.(key) <- v) writes
    | Error (Lvm.Lvm_error.Moved _) -> () (* handoff window: deterministic skip *)
    | Error e -> failwith ("split sweep exec: " ^ err e));
    ss.staged := []
  in
  for _ = 1 to 4 do txn () done;
  Store.move_begin ss.st ~from_:0 ~to_:1 buckets;
  let remaining = ref 1 in
  while !remaining > 0 do
    remaining := Store.move_copy_step ss.st ~batch:1;
    txn ()
  done;
  Store.move_enter_drain ss.st;
  (* A write into the handoff window must be refused with [Moved]
     (keys = buckets here, so a bucket number is a key it contains). *)
  let mk = List.hd buckets in
  ss.staged := [ (mk, 0xABCDE) ];
  (match Store.exec ss.st ~writes:[ (mk, 0xABCDE) ] with
  | Error (Lvm.Lvm_error.Moved _) -> ()
  | Ok () -> failwith "split sweep: draining move accepted a moved-key write"
  | Error e ->
    failwith ("split sweep drain probe: " ^ err e));
  ss.staged := [];
  Store.move_drain ss.st;
  Store.move_cutover ss.st;
  txn (); (* cutover durable, intent not yet retired *)
  Store.move_retire ss.st;
  for _ = 1 to 3 do txn () done;
  (* calm again: merge the displaced buckets back home *)
  Store.move ss.st ~from_:1 ~to_:0 ~batch:1 buckets;
  for _ = 1 to 3 do txn () done

(* The two legal routing tables: default ownership, and default with
   the split's buckets on shard 1. Any recovered route must equal one
   of them exactly. *)
let split_legal_routes ss buckets =
  let r0 =
    Array.init (Store.buckets ss.st) (fun b -> Store.default_owner ss.st b)
  in
  let r1 = Array.copy r0 in
  List.iter (fun b -> r1.(b) <- 1) buckets;
  (r0, r1)

let split_route_check ss buckets =
  let r0, r1 = split_legal_routes ss buckets in
  let rt = Store.route_table ss.st in
  if rt = r0 then Ok "route=default"
  else if rt = r1 then Ok "route=split"
  else
    Error
      (Printf.sprintf "mixed route: %s"
         (String.concat ","
            (Array.to_list (Array.map string_of_int rt))))

(* Post-recovery liveness probe: one single-key transaction on a moved
   bucket and one on an unmoved key must both commit and read back. *)
let split_probe ss buckets =
  let probe key v =
    match Store.exec ss.st ~writes:[ (key, v) ] with
    | Ok () ->
      if read_word ss.st key <> v then
        Error (Printf.sprintf "probe key %d: wrote %d read %d" key v
                 (read_word ss.st key))
      else Ok ()
    | Error e ->
      Error (Printf.sprintf "probe key %d: %s" key (err e))
  in
  let moved = List.hd buckets in
  let unmoved =
    let n = Array.length ss.model in
    let rec go k = if List.mem (k mod Store.buckets ss.st) buckets
      then go (k + 1) else k in
    go 0 mod n
  in
  match probe moved 0x51A51 with
  | Error _ as e -> e
  | Ok () -> probe unmoved 0x51B52

(* A completed schedule merged everything home, so only the default
   route is legal; a crashed one may sit on either side of a cutover
   but must have no move left active and must still commit. *)
let check_split ~crashed (ss, buckets) =
  match check_store_state ss with
  | Error _ as e -> e
  | Ok which when crashed -> (
    if Store.active_move ss.st <> None then Error "recovery left a move active"
    else
      match split_route_check ss buckets with
      | Error _ as e -> e
      | Ok route -> (
        match split_probe ss buckets with
        | Error _ as e -> e
        | Ok () -> Ok (which ^ " " ^ route)))
  | Ok _ ->
    let r0, _ = split_legal_routes ss buckets in
    if Store.route_table ss.st = r0 then Ok "committed"
    else Error "completed run left a non-default route"

let run_split ?(seed = 11) ?(points = 90) ?(torn_points = 8)
    ?(cutover_points = 2) ?(shards = 2) () =
  sweep_subject
    {
      build =
        (fun () ->
          let ss = build_store ~shards () in
          (ss, split_buckets ss));
      kernel = (fun (ss, _) -> Store.kernel ss.st);
      clock = Kernel.max_time;
      workload = run_split_schedule ~shards ~seed;
      recover = (fun (ss, _) -> store_recover ss);
      image = (fun (ss, _) -> (store_image ss, Store.route_table ss.st));
      check = check_split;
    }
    ~points ~torn_points
    ~extra:
      (site_crashes ~name:"cutover" Lvm_fault.Fault.Split_cutover
         cutover_points)
    ~header:(fun total ->
      Printf.sprintf "splitsweep seed=%d total_cycles=%d shards=%d\n" seed
        total shards)
    ()
