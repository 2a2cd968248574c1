open Lvm_vm
module Splitmix = Lvm_fault.Splitmix

(* {1 Zipfian sampler} *)

module Zipf = struct
  type t = {
    n : int;
    theta : float;
    cdf : float array;
    guide : int array;
      (* bucket [floor (u * n)] -> a rank no greater than the draw of any
         [u] in that bucket: where the forward scan starts *)
  }

  (* The reference draw: the smallest rank whose CDF exceeds [u], else
     [n - 1]. *)
  let search (cdf : float array) (u : float) =
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if u < cdf.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let build ~n ~theta =
    (* Exact CDF over the ranks, any theta >= 0 (0 degenerates to
       uniform). *)
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for r = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (r + 1) ** theta));
      cdf.(r) <- !acc
    done;
    let total = !acc in
    for r = 0 to n - 1 do
      cdf.(r) <- cdf.(r) /. total
    done;
    (* Every [u] with [floor (u *. n) = k] is at least [k / n] less two
       rounding errors, and two [Float.pred] steps cover those, so the
       search's answer at that bound is never past the answer at [u]. *)
    let fn = float_of_int n in
    let guide =
      Array.init n (fun k ->
          search cdf (Float.pred (Float.pred (float_of_int k /. fn))))
    in
    { n; theta; cdf; guide }

  (* One table per (n, theta), shared by every caller: [generate] builds
     its sampler on every [run]. *)
  let tables : (int * float, t) Hashtbl.t = Hashtbl.create 8

  let create ~n ~theta =
    if n < 1 then
      Error.raise_ (Error.Out_of_range { op = "Zipf.create"; what = "n"; value = n });
    if not (Float.is_finite theta) || theta < 0.0 then
      Error.raise_
        (Error.Out_of_range { op = "Zipf.create"; what = "theta"; value = 0 });
    match Hashtbl.find_opt tables (n, theta) with
    | Some t -> t
    | None ->
      let t = build ~n ~theta in
      if Hashtbl.length tables >= 64 then Hashtbl.reset tables;
      Hashtbl.replace tables (n, theta) t;
      t

  let n t = t.n
  let theta t = t.theta

  let cdf t r =
    if r < 0 || r >= t.n then
      Error.raise_
        (Error.Out_of_range { op = "Zipf.cdf"; what = "rank"; value = r });
    t.cdf.(r)

  let pmf t r =
    if r < 0 || r >= t.n then
      Error.raise_ (Error.Out_of_range { op = "Zipf.pmf"; what = "rank"; value = r });
    if r = 0 then t.cdf.(0) else t.cdf.(r) -. t.cdf.(r - 1)

  let rank_by_search t u = search t.cdf u

  let rank t u =
    let k = int_of_float (u *. float_of_int t.n) in
    let r = ref t.guide.(if k < t.n then k else t.n - 1) in
    while !r < t.n - 1 && not (u < t.cdf.(!r)) do
      incr r
    done;
    !r

  let sample t rng = rank t (Splitmix.unit_float rng)
end

(* Rank -> key, owner-major: the hottest [buckets_per_shard] ranks land
   on distinct buckets of shard 0, the next batch on shard 1's buckets,
   and so on, wrapping round the keyspace. A skewed rank distribution
   therefore concentrates on the low shards — the hot-shard scenario a
   split must fix — while still spreading within the hot shard's
   buckets, so a split can actually peel load off. A bijection of
   [0, keys) when [shards * buckets_per_shard] divides [keys]. *)
let clustered_key ~shards ~keys rank =
  let buckets_per_shard = Store.buckets_per_shard in
  let buckets = shards * buckets_per_shard in
  let i = rank mod buckets in
  let bucket = ((i mod buckets_per_shard) * shards) + (i / buckets_per_shard) in
  (bucket + (buckets * (rank / buckets))) mod keys

(* {1 The spec} *)

type dist = Uniform | Zipfian of { theta : float }

type arrival =
  | Closed
  | Open of {
      mean_gap : int;
      burst_every : int;
      burst_len : int;
      burst_gap : int;
    }

type split_spec = {
  check_every : int;
  batch : int;
  max_moves : int;
  advisor : Splitter.Config.t;
}

let default_split =
  { check_every = 32; batch = 32; max_moves = 8;
    advisor = Splitter.Config.default }

type read_mode = Worker | Snapshot

type spec = {
  txns : int;
  cross_pct : int;
  writes_per_txn : int;
  seed : int;
  retries : int;
  dist : dist;
  arrival : arrival;
  queue_cap : int option;
  split : split_spec option;
  read_pct : int;
  read_mode : read_mode;
  readers : int;
}

let default =
  { txns = 400; cross_pct = 20; writes_per_txn = 4; seed = 7; retries = 2;
    dist = Uniform; arrival = Closed; queue_cap = None; split = None;
    read_pct = 0; read_mode = Worker; readers = 1 }

type shard_stat = { txns : int; cycles : int }

type result = {
  executed : int;
  reads : int;
  cross : int;
  shed : int;
  failed : int;
  requeued : int;
  moved : int;
  dropped : int;
  splits : int;
  merges : int;
  wall_cycles : int;
  cycles_per_txn : float;
  per_shard : shard_stat array;
}

type entry = {
  writes : (int * int) list;
  reads : int list;
  is_cross : bool;
  mutable tries : int;
  arrive : int;
}

(* Keys living on shard [s] under the default route: s, s + shards, ... *)
let slot_count ~keys ~shards s = (keys - s + shards - 1) / shards

let key_on ~keys ~shards rng s =
  s + (shards * Splitmix.int rng ~bound:(slot_count ~keys ~shards s))

let generate store spec =
  let cfg = Store.config store in
  let shards = cfg.Store.Config.shards in
  let keys = cfg.Store.Config.keys in
  let rng = Splitmix.create ~seed:spec.seed in
  let zipf =
    match spec.dist with
    | Zipfian { theta } -> Some (Zipf.create ~n:keys ~theta)
    | Uniform -> None
  in
  let value () = Splitmix.int rng ~bound:0x3FFFFFFF in
  let skewed_key z = clustered_key ~shards ~keys (Zipf.sample z rng) in
  let clock = ref 0 in
  let entries = ref [] in
  for i = 0 to spec.txns - 1 do
    (* Read-heavy mixes: [read_pct]% of the ops are single-key reads
       drawn from the same distribution. The draw happens only when
       [read_pct > 0], so pure-write specs keep the historical stream
       draw-for-draw. *)
    let is_read = spec.read_pct > 0 && Splitmix.int rng ~bound:100 < spec.read_pct in
    let writes, reads, is_cross =
      if is_read then begin
        let key =
          match zipf with
          | None -> Splitmix.int rng ~bound:keys
          | Some z -> skewed_key z
        in
        ([], [ key ], false)
      end
      else
      match zipf with
      | None ->
        (* The seeded uniform mix, draw-for-draw the stream earlier
           versions produced: same seed, same transactions. *)
        let is_cross =
          shards > 1 && Splitmix.int rng ~bound:100 < spec.cross_pct
        in
        if is_cross then begin
          let a = Splitmix.int rng ~bound:shards in
          let b = (a + 1 + Splitmix.int rng ~bound:(shards - 1)) mod shards in
          let half = max 1 (spec.writes_per_txn / 2) in
          ( List.init half (fun _ -> (key_on ~keys ~shards rng a, value ()))
            @ List.init
                (max 1 (spec.writes_per_txn - half))
                (fun _ -> (key_on ~keys ~shards rng b, value ())),
            [], true )
        end
        else begin
          let s = Splitmix.int rng ~bound:shards in
          ( List.init spec.writes_per_txn
              (fun _ -> (key_on ~keys ~shards rng s, value ())),
            [], false )
        end
      | Some z ->
        (* Skewed mixes draw every key from the distribution; whether
           the transaction is cross-shard falls out of where the keys
           land ([cross_pct] does not apply). *)
        let ws = ref [] in
        for _ = 1 to spec.writes_per_txn do
          ws := (skewed_key z, value ()) :: !ws
        done;
        let ws = List.rev !ws in
        let owners =
          List.sort_uniq compare
            (List.map (fun (key, _) -> Store.shard_of_key store key) ws)
        in
        (ws, [], List.length owners > 1)
    in
    (match spec.arrival with
    | Closed -> ()
    | Open { mean_gap; burst_every; burst_len; burst_gap } ->
      (* Open-loop Poisson arrivals: exponential inter-arrival gaps,
         with the first [burst_len] arrivals of every [burst_every]
         stretch drawn at the (much smaller) burst gap — a periodic
         traffic spike. *)
      let in_burst =
        burst_every > 0 && burst_len > 0 && i mod burst_every < burst_len
      in
      let mean = max 1 (if in_burst then burst_gap else mean_gap) in
      let u = Splitmix.unit_float rng in
      let gap = int_of_float (-.float_of_int mean *. Float.log (1.0 -. u)) in
      clock := !clock + max 0 gap);
    entries := { writes; reads; is_cross; tries = 0; arrive = !clock } :: !entries
  done;
  Array.of_list (List.rev !entries)

(* {1 The scheduler}

   One coroutine per home shard, suspended at [Store.exec]'s pace
   points via an effect handler. Every scheduler step resumes the
   coroutine whose next operation runs on the lowest-clock CPU, so the
   shared bus sees accesses in timestamp order — at whole-transaction
   granularity (the old round-robin driver) the tens-of-kilocycle
   commit charge of the leading CPU lands on the bus cursor first and
   every other CPU's next access is billed the skew as phantom
   contention, which erases the scaling shards buy. *)

type _ Effect.t += Yield : int -> unit Effect.t
(** Performed by the store's [pace ~cpu] hook: suspend this transaction;
    its next operation runs on CPU [cpu]. *)

type outcome =
  | Suspended of int * (unit, outcome) Effect.Deep.continuation
  | Done of (unit, Lvm.Lvm_error.t) Stdlib.result

(* What an in-flight coroutine is doing: a whole transaction (carrying
   the shards whose claim it handed to detached phase-2 items — those
   are released by the phase-2 item, not by the transaction), or the
   detached phase-2 tail of a cross-shard transaction (it holds the
   claim on one participant shard until it completes). *)
type job = Txn of entry * int list ref | Phase2 of int

type task_state =
  | Idle
  | Running of job * int * (unit, outcome) Effect.Deep.continuation

let yield ~cpu = Effect.perform (Yield cpu)

(* Start a unit of work as a coroutine: runs until the first pace point
   (or to completion if it never paces). *)
let start_coroutine f =
  Effect.Deep.match_with f ()
    { Effect.Deep.retc = (fun r -> Done r);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield cpu ->
            Some
              (fun (k : (a, outcome) Effect.Deep.continuation) ->
                Suspended (cpu, k))
          | _ -> None) }

(* Fold over an entry's keys, writes then reads, without building a
   list. A key may repeat; every caller is idempotent in it. *)
let rec fold_write_keys f acc = function
  | [] -> acc
  | (key, _) :: rest -> fold_write_keys f (f acc key) rest

let fold_keys f acc entry =
  List.fold_left f (fold_write_keys f acc entry.writes) entry.reads

(* What a shard CPU burns per scheduler step while its next transaction
   waits for a shard a cross-shard transaction holds — 2PC blocking,
   priced as a busy-wait. *)
let blocked_spin_cycles = 200

(* The driver's view of the move lifecycle it is running: the store
   holds the protocol state, this is just which step comes next. *)
type mv = { mv_from : int; mv_to : int; mv_merge : bool }

type mv_stage =
  | Mv_none
  | Mv_begin of mv * int list
  | Mv_copy of mv
  | Mv_drain of mv
  | Mv_cut of mv

let validate (spec : spec) =
  let range what value =
    Error.raise_ (Error.Out_of_range { op = "Workload.run"; what; value })
  in
  if spec.txns < 1 then range "txns" spec.txns;
  if spec.cross_pct < 0 || spec.cross_pct > 100 then
    range "cross_pct" spec.cross_pct;
  if spec.writes_per_txn < 1 then range "writes_per_txn" spec.writes_per_txn;
  if spec.retries < 0 then range "retries" spec.retries;
  if spec.read_pct < 0 || spec.read_pct > 100 then
    range "read_pct" spec.read_pct;
  if spec.readers < 1 then range "readers" spec.readers;
  match (spec.queue_cap, spec.arrival) with
  | Some _, Closed ->
    Error.raise_
      (Error.Invalid
         { op = "Workload.run"; reason = "queue_cap needs Open arrivals" })
  | Some cap, Open _ when cap < 1 -> range "queue_cap" cap
  | (Some _ | None), _ -> ()

let run store spec =
  validate spec;
  let k = Store.kernel store in
  let cfg = Store.config store in
  let shards = cfg.Store.Config.shards in
  let entries = generate store spec in
  let n_entries = Array.length entries in
  let next_arrival = ref 0 in
  let queues = Array.init shards (fun _ -> Queue.create ()) in
  let executed = ref 0 and cross = ref 0 and reads_done = ref 0 in
  let shed = ref 0 and failed = ref 0 and requeued = ref 0 in
  let moved = ref 0 and dropped = ref 0 in
  let splits = ref 0 and merges = ref 0 in
  (* Transactions refused with [Moved] (their keys are mid-handoff):
     parked until the cutover commits, then re-queued under the new
     route. *)
  let parked = ref [] in
  let txn_counts = Array.make shards 0 in
  let cpu0 = Array.init shards (fun i -> Kernel.cpu_time k ~cpu:i) in
  let wall0 = Kernel.max_time k in
  let states = Array.make shards Idle in
  (* A shard with a transaction in flight: in-flight transactions must
     never share a shard (two open RLVM transactions on one instance). *)
  let busy = Array.make shards false in
  (* Detached phase-2 work, queued for the participant shard's worker
     (at most one per shard — the shard is claimed throughout). *)
  let phase2s = Array.make shards [] in
  (* [detach] is called from inside [Store.exec] while its coroutine
     runs, so the scheduler installs the running transaction's detached
     set here before each resume. The set must be per-transaction, not
     per-shard: a completed phase-2 frees its shard for a new claimant,
     and the detaching transaction's own [finish] — which may come
     later — must still skip exactly the shards it handed off. *)
  let detached_of_current = ref (ref []) in
  let detach ~shard run =
    let d = !detached_of_current in
    d := shard :: !d;
    phase2s.(shard) <- phase2s.(shard) @ [ run ]
  in
  (* Route-aware: a moved bucket changes which worker claims the key.
     The per-key closures are built once, not per call. *)
  let min_shard acc key = Int.min acc (Store.shard_of_key store key) in
  let home_of entry = fold_keys min_shard (shards - 1) entry in
  let any_busy held key = held || busy.(Store.shard_of_key store key) in
  let claim () key = busy.(Store.shard_of_key store key) <- true in
  (* {2 Snapshot readers}

     In [Snapshot] read mode the reads never enter a shard queue: they
     drain through [readers] virtual reader tasks, each with its own
     clock, reading MVCC snapshots off the log — no shard CPU, no
     claim, no admission. A reader re-acquires its snapshot every
     [snap_batch] reads (staleness bound) and otherwise reads wait-free
     against the pinned version chains. Readers are throttled to the
     machine wall clock while transactions are still in flight so the
     interleaving is honest; whatever is left drains after the writes
     finish. *)
  let snapshot_reads = spec.read_mode = Snapshot && spec.read_pct > 0 in
  (* Attach the view now, while the store is quiescent — a mid-run
     first acquire could land between a 2PC decision and its phase-2
     commits, when attaching is refused. *)
  if snapshot_reads && not (Store.mvcc_attached store) then
    (match Store.Snapshot.acquire store with
    | Ok s -> Store.Snapshot.release s
    | Error _ -> ());
  let read_stream = Queue.create () in
  let n_readers = spec.readers in
  let reader_clock = Array.make n_readers wall0 in
  let reader_snap = Array.make n_readers None in
  let reader_count = Array.make n_readers 0 in
  (* A snapshot read bills the version-chain lookup plus the same
     per-request application compute a worker-served read pays — on the
     reader's own clock instead of the shard CPU. The comparison
     measures placement, not vanished work. *)
  let snap_read_cycles = 60 + cfg.Store.Config.compute in
  let snap_acquire_cycles = 200 and snap_batch = 64 in
  let min_reader () =
    let best = ref 0 in
    for r = 1 to n_readers - 1 do
      if reader_clock.(r) < reader_clock.(!best) then best := r
    done;
    !best
  in
  let reader_read key =
    let r = min_reader () in
    if reader_count.(r) mod snap_batch = 0 then begin
      (match reader_snap.(r) with
      | Some s -> Store.Snapshot.release s
      | None -> ());
      reader_clock.(r) <- reader_clock.(r) + snap_acquire_cycles;
      reader_snap.(r) <-
        (match Store.Snapshot.acquire store with
        | Ok s -> Some s
        | Error _ -> None)
    end;
    reader_clock.(r) <- reader_clock.(r) + snap_read_cycles;
    reader_count.(r) <- reader_count.(r) + 1;
    match reader_snap.(r) with
    | Some s -> (
      match Store.Snapshot.read s key with
      | Ok _ -> incr reads_done
      | Error _ -> incr failed)
    | None -> incr failed
  in
  let drain_reads ~final =
    while
      (not (Queue.is_empty read_stream))
      && (final || reader_clock.(min_reader ()) <= Kernel.max_time k)
    do
      reader_read (Queue.pop read_stream)
    done
  in
  let enqueue entry =
    if snapshot_reads && entry.writes = [] then
      List.iter (fun key -> Queue.add key read_stream) entry.reads
    else
      let h = home_of entry in
      match spec.queue_cap with
      | Some cap when Queue.length queues.(h) >= cap ->
        (* Front-door drop: the home worker's queue is over its cap. *)
        incr dropped
      | _ -> Queue.add entry queues.(h)
  in
  let transfer_arrivals () =
    if !next_arrival < n_entries then begin
      let wall = Kernel.max_time k in
      while
        !next_arrival < n_entries && entries.(!next_arrival).arrive <= wall
      do
        enqueue entries.(!next_arrival);
        incr next_arrival
      done
    end
  in
  (* {2 The split engine} *)
  let splitter =
    match spec.split with
    | Some sc -> Some (Splitter.create ~config:sc.advisor store)
    | None -> None
  in
  let stage = ref Mv_none in
  let moves_done = ref 0 in
  let completions = ref 0 in
  let maybe_advise () =
    match (splitter, spec.split) with
    | Some sp, Some scfg
      when !stage = Mv_none
           && !moves_done < scfg.max_moves
           && !completions >= scfg.check_every -> (
      completions := 0;
      match
        Splitter.advise sp ~queue_depths:(Array.map Queue.length queues)
      with
      | Splitter.Split { from_; to_; buckets } ->
        stage :=
          Mv_begin ({ mv_from = from_; mv_to = to_; mv_merge = false }, buckets)
      | Splitter.Merge { from_; to_; buckets } ->
        stage :=
          Mv_begin ({ mv_from = from_; mv_to = to_; mv_merge = true }, buckets)
      | Splitter.Steady -> ())
    | _ -> ()
  in
  let unpark () =
    let ps = List.rev !parked in
    parked := [];
    (* Re-queued, not re-admitted: they passed the front door once. *)
    List.iter (fun e -> Queue.add e queues.(home_of e)) ps
  in
  (* One move step, run inline between scheduler steps whenever both
     endpoint shards are free — the copy interleaves with transaction
     execution at batch granularity instead of stopping the world. *)
  let free m = (not busy.(m.mv_from)) && not busy.(m.mv_to) in
  let drive_move () =
    match !stage with
    | Mv_none -> ()
    | Mv_begin (m, buckets) when free m ->
      Store.move_begin store ~from_:m.mv_from ~to_:m.mv_to buckets;
      stage := Mv_copy m
    | Mv_copy m when free m -> (
      let scfg = Option.get spec.split in
      match Store.move_copy_step store ~batch:(max 1 scfg.batch) with
      | 0 ->
        Store.move_enter_drain store;
        stage := Mv_drain m
      | _ -> ()
      | exception Error.Lvm_error (Error.Log_exhausted _) ->
        (* Target log saturated: the cursor did not move; retry next
           round once the batcher drains. *)
        ())
    | Mv_drain m when free m ->
      Store.move_drain store;
      stage := Mv_cut m
    | Mv_cut m when free m ->
      Store.move_cutover store;
      Store.move_retire store;
      incr moves_done;
      if m.mv_merge then incr merges else incr splits;
      stage := Mv_none;
      (* The cutover changed the routing table: entries queued under
         the old route would otherwise drain serially behind a worker
         that no longer owns their keys — the split would move the
         data and none of the load. Re-deal every queue by the new
         table (FIFO order per queue preserved). *)
      let backlog =
        Array.map
          (fun q ->
            let l = List.of_seq (Queue.to_seq q) in
            Queue.clear q; l)
          queues
      in
      Array.iter
        (List.iter (fun e -> Queue.add e queues.(home_of e)))
        backlog;
      unpark ()
    | _ -> ()
  in
  let finish i job result =
    match job with
    | Phase2 s -> busy.(s) <- false
    | Txn (entry, detached) -> (
      fold_keys
        (fun () key ->
          let s = Store.shard_of_key store key in
          if not (List.mem s !detached) then busy.(s) <- false)
        () entry;
      if entry.writes = [] then
        (* Worker-mode read-only entry: its reads were counted (or
           failed) one by one inside its coroutine. *)
        ()
      else
      match result with
      | Ok () ->
        incr executed;
        incr completions;
        txn_counts.(i) <- txn_counts.(i) + 1;
        if entry.is_cross then incr cross
      | Error (Lvm.Lvm_error.Moved _) ->
        (* The handoff window: park until the cutover commits. *)
        incr moved;
        parked := entry :: !parked
      | Error (Lvm.Lvm_error.Shed _) -> incr shed
      | Error (Lvm.Lvm_error.Overloaded _) when entry.tries < spec.retries ->
        entry.tries <- entry.tries + 1;
        incr requeued;
        Queue.add entry queues.(home_of entry)
      | Error _ ->
        (* Retry budget exhausted (or a validation error): a distinct
           failure, never folded into the deliberate-shed count. *)
        incr failed)
  in
  let live i =
    states.(i) <> Idle || phase2s.(i) <> [] || not (Queue.is_empty queues.(i))
  in
  (* Scheduling key: the clock of the CPU the task's next operation
     runs on (its own CPU while idle). *)
  let next_cpu i =
    match states.(i) with Running (_, cpu, _) -> cpu | Idle -> i
  in
  let launch i job outcome =
    match outcome with
    | Suspended (cpu, cont) -> states.(i) <- Running (job, cpu, cont)
    | Done r -> finish i job r
  in
  (* Nothing at the loop top can act: every entry has arrived, no read
     waits for a reader, no move is in flight and the advisor is not
     due. Until some task steps, nothing but a spinning worker's own
     clock can change. *)
  let quiescent () =
    !next_arrival >= n_entries
    && Queue.is_empty read_stream
    && !stage = Mv_none
    && (match spec.split with
       | Some scfg ->
         !moves_done >= scfg.max_moves || !completions < scfg.check_every
       | None -> true)
  in
  (* The horizon spin. Under [quiescent], a blocked worker [i] spins
     and nothing else moves, so while its clock is below every other
     live task's key it stays the loop's pick whatever the tie rules.
     It spins in place up to that horizon: the same rounds of
     [blocked_spin_cycles], each its own [Kernel.compute], that one
     scheduler visit per spin would run. At the horizon the loop picks
     again, so a tie is settled as before. A task keyed on
     [i]'s own CPU puts the horizon at [i]'s clock: no spin. *)
  let spin_to_horizon i =
    let horizon = ref max_int in
    for j = 0 to shards - 1 do
      if j <> i && live j then
        horizon := Int.min !horizon (Kernel.cpu_time k ~cpu:(next_cpu j))
    done;
    if !horizon = max_int then
      (* No task is left to release the held shard. *)
      Error.raise_
        (Error.Invalid
           { op = "Workload.run";
             reason = "blocked worker has no live task to unblock it" });
    (* [Kernel.compute] adds exactly its cycles to [i]'s clock, so a
       local copy tracks it without re-reading the machine. *)
    let clock = ref (Kernel.cpu_time k ~cpu:i) in
    while !clock < !horizon do
      Kernel.compute k blocked_spin_cycles;
      clock := !clock + blocked_spin_cycles
    done
  in
  let step i =
    match states.(i) with
    | Running (job, _, cont) -> (
      (match job with
      | Txn (_, detached) -> detached_of_current := detached
      | Phase2 _ -> ());
      match Effect.Deep.continue cont () with
      | Suspended (cpu, cont') -> states.(i) <- Running (job, cpu, cont')
      | Done r ->
        states.(i) <- Idle;
        finish i job r)
    | Idle -> (
      match phase2s.(i) with
      | run :: rest ->
        (* A decided cross-shard transaction's commit on this shard:
           always runnable — the shard claim came with it. *)
        phase2s.(i) <- rest;
        launch i (Phase2 i)
          (start_coroutine (fun () ->
               run ~pace:yield;
               Ok ()))
      | [] -> (
        let entry = Queue.peek queues.(i) in
        match Store.blocked_by_move store entry.writes with
        | Some _ ->
          (* This transaction's keys are draining to a new owner.
             Park it now — claiming shards and running it would only
             bounce off the store's [Moved] refusal. *)
          ignore (Queue.pop queues.(i));
          incr moved;
          parked := entry :: !parked
        | None ->
          if fold_keys any_busy false entry then begin
            (* A shard this transaction needs is held (by a cross-shard
               transaction, or this is a cross-shard transaction and a
               participant is mid-commit): spin until it frees up. *)
            Kernel.set_cpu k i;
            Kernel.compute k blocked_spin_cycles;
            if quiescent () then spin_to_horizon i
          end
          else begin
            ignore (Queue.pop queues.(i));
            fold_keys claim () entry;
            let detached = ref [] in
            detached_of_current := detached;
            launch i
              (Txn (entry, detached))
              (start_coroutine (fun () ->
                   if entry.writes = [] then begin
                     (* Worker-mode read: scheduled like a transaction
                        and served by the owning shard's worker, so the
                        per-request application compute lands on the
                        shard CPU — the baseline the snapshot readers
                        are measured against. *)
                     List.iter
                       (fun key ->
                         let s = Store.shard_of_key store key in
                         yield ~cpu:s;
                         Kernel.set_cpu k s;
                         Kernel.compute k cfg.Store.Config.compute;
                         match Store.read store key with
                         | Ok _ -> incr reads_done
                         | Error _ -> incr failed)
                       entry.reads;
                     Ok ()
                   end
                   else Store.exec store ~pace:yield ~detach ~writes:entry.writes))
          end))
  in
  (* Lowest clock first; on ties an in-flight transaction beats an idle
     worker, and then the lowest index wins. The in-flight preference is
     load-bearing: a worker blocked on shard admission spins on the very
     CPU a parked cross-shard transaction is keyed on (the coordinator),
     so their keys stay tied forever — the spinner must lose the tie or
     the transaction holding the shard never runs again. Each live
     task's key is read once per round. *)
  let running i = match states.(i) with Running _ -> true | Idle -> false in
  let rec loop stalled =
    transfer_arrivals ();
    maybe_advise ();
    drive_move ();
    drain_reads ~final:false;
    let best = ref (-1) and best_key = ref 0 in
    for i = 0 to shards - 1 do
      if live i then begin
        let key = Kernel.cpu_time k ~cpu:(next_cpu i) in
        if !best < 0 || key < !best_key
           || (key = !best_key && running i && not (running !best))
        then begin
          best := i;
          best_key := key
        end
      end
    done;
    if !best >= 0 then begin
      step !best;
      loop 0
    end
    else if !next_arrival < n_entries then begin
      (* Open-loop idle gap: nothing queued, nothing in flight — spin
         the next arrival's home CPU forward to its arrival time. *)
      let e = entries.(!next_arrival) in
      let h = home_of e in
      Kernel.set_cpu k h;
      let now = Kernel.cpu_time k ~cpu:h in
      if e.arrive > now then Kernel.compute k (e.arrive - now)
      else begin
        (* Another CPU's clock already covers the arrival. *)
        enqueue e;
        incr next_arrival
      end;
      loop 0
    end
    else if !stage <> Mv_none then begin
      (* Only the move is left; [drive_move] at the loop top advances
         it one step per round. A copy that cannot progress with the
         whole system idle never will. *)
      if stalled > 10_000 then
        Error.raise_
          (Error.Invalid
             { op = "Workload.run";
               reason = "shard move cannot make progress" });
      loop (stalled + 1)
    end
    else if !parked <> [] then begin
      (* Defensive: parked entries with no move in flight (the move
         completed between checks). *)
      unpark ();
      loop 0
    end
    else ()
  in
  loop 0;
  Kernel.set_cpu k 0;
  Store.flush store;
  (* Whatever reads the wall-clock throttle held back drain now, on the
     reader clocks alone — the writes are done. *)
  drain_reads ~final:true;
  Array.iteri
    (fun r s ->
      match s with
      | Some s ->
        Store.Snapshot.release s;
        reader_snap.(r) <- None
      | None -> ())
    reader_snap;
  let max_reader = Array.fold_left max wall0 reader_clock in
  let wall = max (Kernel.max_time k) max_reader - wall0 in
  { executed = !executed;
    reads = !reads_done;
    cross = !cross;
    shed = !shed;
    failed = !failed;
    requeued = !requeued;
    moved = !moved;
    dropped = !dropped;
    splits = !splits;
    merges = !merges;
    wall_cycles = wall;
    cycles_per_txn = float_of_int wall /. float_of_int (max 1 !executed);
    per_shard =
      Array.init shards (fun i ->
          { txns = txn_counts.(i);
            cycles = Kernel.cpu_time k ~cpu:i - cpu0.(i) }) }
