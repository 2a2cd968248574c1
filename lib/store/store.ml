open Lvm_vm
module Rlvm = Lvm_rvm.Rlvm
module Ramdisk = Lvm_rvm.Ramdisk

module Config = struct
  type t = {
    shards : int;
    keys : int;
    group : int;
    log_pages : int;
    max_log_pages : int option;
    max_txn_writes : int;
    compute : int;
    frames : int;
    admission_rate : float;
    admission_burst : int;
    obs : Lvm_obs.Ctx.t option;
  }

  let default =
    { shards = 4; keys = 1024; group = 1; log_pages = 32;
      max_log_pages = None; max_txn_writes = 32; compute = 400;
      frames = 4096; admission_rate = 0.0; admission_burst = 8;
      obs = None }
end

let buckets_per_shard = 8
(* Commit timestamps of version history kept behind the MVCC cut for
   [Snapshot.as_of]. *)
let mvcc_history = 1024

(* {1 Shard moves (split / merge)}

   Ownership is bucket-granular: key [k] hashes to bucket [k mod
   buckets], and the routing table maps each bucket to its owning
   shard (default: [b mod shards]). A move hands a set of buckets from
   one shard to another through a crash-safe three-phase protocol:

   - [Copying]: a forced split-intent record marks the move in the
     coordinator log, then the moved keys are copied to the target in
     resumable batches (committed target-shard transactions); writes to
     already-routed-to-[from] moved keys keep landing on [from] and are
     tracked in a dirty set for re-copy.
   - [Draining]: new transactions touching a moved key are refused with
     the typed [Moved] result (the driver requeues them); the dirty set
     is re-copied so the target holds every moved key's latest value.
   - [Cut_over]: one forced coordinator transaction atomically rewrites
     the moved buckets' route words and advances the intent state — the
     decision point. After it, the route flip is durable; a final
     unforced retire clears the intent.

   Crash recovery inspects the intent: state [Copying] means ownership
   never changed, so the move is abandoned (the target's partial copy
   is unreachable garbage); state [Cut_over] means the route words are
   already durable in the same committed transaction, so recovery just
   retires the intent. Either way every key has exactly one owner. *)

type move_phase = Copying | Draining | Cut_over

type move = {
  m_from : int;
  m_to : int;
  m_mask : bool array; (* per bucket: part of this move? *)
  mutable m_cursor : int; (* next key index the copy will examine *)
  m_dirty : (int, unit) Hashtbl.t; (* moved keys written during the copy *)
  mutable m_phase : move_phase;
}

type gate = { mutable g_tokens : float; mutable g_last : int }

type t = {
  k : Kernel.t;
  config : Config.t;
  shards : Rlvm.t array;
  coord : Ramdisk.t;
  (* One intent slot per shard in the coordinator image, [slot_busy.(i)]
     while slot [i] holds a decided-but-unretired intent. Every
     transaction in its decide->retire window holds a claim on at least
     one shard (each non-home participant stays claimed until its
     phase-2 commit completes, and the last participant retires), so at
     most [shards] transactions are ever in that window at once. *)
  slot_busy : bool array;
  buckets : int;
  route : int array; (* bucket -> owning shard *)
  split_base : int; (* split-intent slot offset in the coordinator *)
  route_base : int; (* route-word array offset in the coordinator *)
  mutable active : move option;
  gates : gate array; (* per-shard token-bucket admission *)
  bucket_writes : int array; (* committed writes per bucket (load) *)
  txns_c : Lvm_obs.Counter.counter;
  cross_c : Lvm_obs.Counter.counter;
  redo_c : Lvm_obs.Counter.counter;
  overloaded_c : Lvm_obs.Counter.counter;
  shed_c : Lvm_obs.Counter.counter;
  moved_c : Lvm_obs.Counter.counter;
  split_begun_c : Lvm_obs.Counter.counter;
  split_copied_c : Lvm_obs.Counter.counter;
  split_cutover_c : Lvm_obs.Counter.counter;
  split_aborted_c : Lvm_obs.Counter.counter;
  shard_txns : Lvm_obs.Counter.counter array;
  commit_hist : Lvm_obs.Histogram.t;
  mutable next_gid : int;
  (* {2 Commit timestamps (MVCC)}

     One global clock stamps every committed transaction; a cross-shard
     transaction draws its timestamp at the decision point and carries
     it on every participant, so any timestamp cut sees it wholly or
     not at all. [in_flight] maps a cross-shard timestamp to its
     not-yet-committed participant count: the watermark — the highest
     timestamp below which everything is decided and applied — is one
     below the oldest in-flight entry. *)
  mutable next_ts : int;
  in_flight : (int, int) Hashtbl.t;
  mutable mvcc : Lvm_mvcc.View.t option;
}

let range op what value =
  Error.raise_ (Error.Out_of_range { op; what; value })

(* Coordinator intent slot: word 0 = state (1 decided, 0 retired),
   word 1 = gid, word 2 = write count, then (key, value) word pairs.
   The coordinator image holds one such slot per shard, so concurrent
   cross-shard transactions in their decide->retire windows keep
   disjoint intents — a decide never overwrites a live sibling, and a
   retire zeroes only its own slot's state word. One Data record
   carries a whole slot, so each intent is durable atomically (the WAL
   checksum truncates a torn prefix).

   Past the intent slots the image holds the split-intent slot (state
   word: 0 idle / 1 copying / 2 cut over; from; to; bucket bitmap) and
   the route-word array — one word per bucket, 0 meaning the default
   owner [b mod shards] and [s + 1] meaning shard [s], so a freshly
   created store needs no initializing writes. *)
let intent_off_state = 0
let intent_off_gid = 4
let intent_off_count = 8
let intent_off_pairs = 12
let intent_size max_writes = intent_off_pairs + (8 * max_writes)

let split_state_copying = 1
let split_state_cutover = 2
let split_mask_words buckets = (buckets + 31) / 32
let split_slot_bytes buckets = 12 + (4 * split_mask_words buckets)

let set32 b off v = Bytes.set_int32_le b off (Int32.of_int (v land 0xFFFFFFFF))
let get32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let bytes32 v =
  let b = Bytes.make 4 '\000' in
  set32 b 0 v;
  b

let create (config : Config.t) =
  if config.Config.shards < 1 then
    range "Store.create" "shards" config.Config.shards;
  if config.Config.keys < config.Config.shards then
    range "Store.create" "keys" config.Config.keys;
  if config.Config.max_txn_writes < 1 then
    range "Store.create" "max_txn_writes" config.Config.max_txn_writes;
  if config.Config.compute < 0 then
    range "Store.create" "compute" config.Config.compute;
  (* Validate the whole config up front with typed errors: without these
     a nonsensical group/log_pages/frames surfaced as a late crash deep
     inside shard or kernel creation (or not until first use). *)
  if config.Config.group < 1 then
    range "Store.create" "group" config.Config.group;
  if config.Config.log_pages < 1 then
    range "Store.create" "log_pages" config.Config.log_pages;
  (match config.Config.max_log_pages with
  | Some m when m < config.Config.log_pages ->
    range "Store.create" "max_log_pages" m
  | Some _ | None -> ());
  if config.Config.frames < 1 then
    range "Store.create" "frames" config.Config.frames;
  if config.Config.admission_rate < 0.0 then
    range "Store.create" "admission_rate" 0;
  if config.Config.admission_burst < 1 then
    range "Store.create" "admission_burst" config.Config.admission_burst;
  let k =
    Lvm.Api.create
      { Lvm.Api.Config.default with
        cpus = config.Config.shards;
        frames = config.Config.frames;
        obs = config.Config.obs }
  in
  (* Every shard's segment spans the whole keyspace: a key's offset is
     owner-independent, so bucket handoffs never relocate data within a
     segment — the copy writes each key at the same offset it had. *)
  let shards =
    Array.init config.Config.shards (fun s ->
        Kernel.set_cpu k s;
        let sp = Kernel.create_space k in
        Rlvm.make
          { Rlvm.Config.log_pages = config.Config.log_pages;
            max_log_pages = config.Config.max_log_pages;
            group = config.Config.group }
          k sp ~size:(config.Config.keys * Lvm_machine.Addr.word_size))
  in
  Kernel.set_cpu k 0;
  let buckets = config.Config.shards * buckets_per_shard in
  let split_base = config.Config.shards * intent_size config.Config.max_txn_writes in
  let route_base = split_base + split_slot_bytes buckets in
  let coord = Ramdisk.create k ~size:(route_base + (4 * buckets)) in
  let ctx = Kernel.obs k in
  { k; config; shards; coord;
    slot_busy = Array.make config.Config.shards false;
    buckets;
    route = Array.init buckets (fun b -> b mod config.Config.shards);
    split_base; route_base;
    active = None;
    gates =
      Array.init config.Config.shards (fun _ ->
          { g_tokens = float_of_int config.Config.admission_burst;
            g_last = 0 });
    bucket_writes = Array.make buckets 0;
    txns_c = Lvm_obs.Ctx.counter ctx "store.txns";
    cross_c = Lvm_obs.Ctx.counter ctx "store.txns_cross";
    redo_c = Lvm_obs.Ctx.counter ctx "store.redo";
    overloaded_c = Lvm_obs.Ctx.counter ctx "store.overloaded";
    shed_c = Lvm_obs.Ctx.counter ctx "store.shed_admission";
    moved_c = Lvm_obs.Ctx.counter ctx "store.moved_requeues";
    split_begun_c = Lvm_obs.Ctx.counter ctx "store.split_begun";
    split_copied_c = Lvm_obs.Ctx.counter ctx "store.split_copied_keys";
    split_cutover_c = Lvm_obs.Ctx.counter ctx "store.split_cutovers";
    split_aborted_c = Lvm_obs.Ctx.counter ctx "store.split_aborted";
    shard_txns =
      Array.init config.Config.shards (fun s ->
          Lvm_obs.Ctx.counter ctx (Printf.sprintf "store.shard%d.txns" s));
    commit_hist =
      Lvm_obs.Ctx.histogram ctx ~name:"store.commit_cycles"
        ~bounds:(Lvm_obs.Histogram.pow2_bounds ~max_exp:24);
    next_gid = 1;
    next_ts = 1;
    in_flight = Hashtbl.create 17;
    mvcc = None }

let kernel t = t.k
let config t = t.config
let buckets t = t.buckets
let bucket_of_key t key = key mod t.buckets
let owner_of_bucket t b = t.route.(b)
let shard_of_key t key = t.route.(key mod t.buckets)
let default_owner t b = b mod t.config.Config.shards
let route_table t = Array.copy t.route
let shard t s = t.shards.(s)
let off_of_key _t key = key * Lvm_machine.Addr.word_size
let bucket_write_counts t = Array.copy t.bucket_writes

let shard_buckets t s =
  let acc = ref [] in
  for b = t.buckets - 1 downto 0 do
    if t.route.(b) = s then acc := b :: !acc
  done;
  !acc

(* {1 Commit timestamps} *)

let alloc_ts t =
  let ts = t.next_ts in
  t.next_ts <- ts + 1;
  ts

let last_ts t = t.next_ts - 1

let watermark t =
  let oldest =
    Hashtbl.fold (fun ts _ acc -> min acc ts) t.in_flight max_int
  in
  if oldest = max_int then t.next_ts - 1 else oldest - 1

let mvcc_event t e =
  match t.mvcc with None -> () | Some v -> Lvm_mvcc.View.event v e

(* Stamp shard [s]'s most recent rlvm transaction with [ts]. Ids are
   assigned at [begin_txn] and never reused, and the claim discipline
   admits one transaction per shard, so [last_txn_id] is exactly the
   transaction that just committed. *)
let note_commit t s ts =
  mvcc_event t
    (Lvm_mvcc.Commit { shard = s; txn = Rlvm.last_txn_id t.shards.(s); ts })

(* One participant of cross-shard timestamp [ts] finished its phase-2
   commit: stamp it and retire the in-flight entry on the last one,
   releasing the watermark. *)
let cross_done t ts s =
  note_commit t s ts;
  match Hashtbl.find_opt t.in_flight ts with
  | Some n when n <= 1 -> Hashtbl.remove t.in_flight ts
  | Some n -> Hashtbl.replace t.in_flight ts (n - 1)
  | None -> ()

(* {1 Reads} *)

(* Worker-path read: charged to the owning shard's CPU, contending with
   its commit path — the pre-MVCC behavior, and the baseline the
   [lvmctl exp mvcc] comparison measures snapshot reads against. *)
let worker_read t key =
  let s = shard_of_key t key in
  Kernel.set_cpu t.k s;
  Rlvm.read_word t.shards.(s) ~off:(off_of_key t key)

let read t key =
  if key < 0 || key >= t.config.Config.keys then
    Error (Lvm.Lvm_error.Invalid_key { key })
  else
    match t.mvcc with
    | None -> Ok (worker_read t key)
    | Some v ->
      (* Latest-snapshot read: acquire at the current cut, read, release.
         Never touches a shard worker CPU. *)
      let snap = Lvm_mvcc.acquire v in
      let r = Lvm_mvcc.read snap ~key in
      Lvm_mvcc.release snap;
      r

(* Group writes by owning shard, ascending shard order, original write
   order preserved within a shard (last write to a key wins). *)
let partition t writes =
  let by = Array.make t.config.Config.shards [] in
  List.iter
    (fun (key, v) ->
      let s = shard_of_key t key in
      by.(s) <- (key, v land 0xFFFFFFFF) :: by.(s))
    writes;
  Array.to_list (Array.mapi (fun s ws -> (s, List.rev ws)) by)
  |> List.filter (fun (_, ws) -> ws <> [])

let no_pace ~cpu:_ = ()

let apply_writes ?(sync = fun () -> ()) t r ws =
  List.iter
    (fun (key, v) ->
      sync ();
      Rlvm.write_word r ~off:(off_of_key t key) v)
    ws

(* {1 Token-bucket admission}

   One bucket per shard, refilled from the shard CPU's own clock
   ([admission_rate] tokens per thousand cycles, capped at
   [admission_burst]). The gate sits in front of everything: a
   transaction it refuses costs no log room, no CPU charge, no 2PC
   slot — overload degrades to typed [Shed] results at the front door
   instead of wedging in the log-room backpressure path. *)

let admit t s =
  t.config.Config.admission_rate <= 0.0
  ||
  let g = t.gates.(s) in
  let now = Kernel.cpu_time t.k ~cpu:s in
  if now > g.g_last then begin
    g.g_tokens <-
      Float.min
        (float_of_int t.config.Config.admission_burst)
        (g.g_tokens
        +. float_of_int (now - g.g_last)
           *. t.config.Config.admission_rate /. 1000.0);
    g.g_last <- now
  end;
  if g.g_tokens >= 1.0 then begin
    g.g_tokens <- g.g_tokens -. 1.0;
    true
  end
  else false

(* {1 Single-shard commit} *)

let exec_local ~pace t s ws =
  (* Yield to the driver's scheduler between operations, then take the
     shard's CPU back (the scheduler runs other transactions' operations
     on other CPUs while we are suspended). *)
  let sync () =
    pace ~cpu:s;
    Kernel.set_cpu t.k s
  in
  sync ();
  let r = t.shards.(s) in
  match
    Kernel.compute t.k t.config.Config.compute;
    sync ();
    Rlvm.begin_txn r;
    apply_writes ~sync t r ws;
    sync ();
    Rlvm.commit ~pace:sync r
  with
  | () ->
    note_commit t s (alloc_ts t);
    Ok ()
  | exception Error.Lvm_error (Error.Log_exhausted _) ->
    (* Backpressure: the shard's log cannot make this transaction
       durable. Abort cleanly and report it as admission-control
       pressure rather than failing. *)
    if Rlvm.in_txn r then Rlvm.abort r;
    Error (Lvm.Lvm_error.Overloaded { shard = s })

(* {1 Two-phase commit} *)

let intent_bytes gid pairs =
  let n = List.length pairs in
  let b = Bytes.make (intent_size n) '\000' in
  set32 b intent_off_state 1;
  set32 b intent_off_gid gid;
  set32 b intent_off_count n;
  List.iteri
    (fun i (key, v) ->
      set32 b (intent_off_pairs + (8 * i)) key;
      set32 b (intent_off_pairs + (8 * i) + 4) v)
    pairs;
  b

let slot_off t slot = slot * intent_size t.config.Config.max_txn_writes

(* Claim a free intent slot. The shard-claim discipline bounds
   concurrent decide->retire windows by the shard count (see
   [slot_busy]), so a driver that respects it never exhausts the
   slots. *)
let alloc_slot t =
  let n = Array.length t.slot_busy in
  let rec go i =
    if i >= n then range "Store.exec" "in-flight cross-shard txns" n
    else if t.slot_busy.(i) then go (i + 1)
    else begin
      t.slot_busy.(i) <- true;
      i
    end
  in
  go 0

(* The decision point: once this force returns, the transaction is
   committed in full — recovery rolls it forward from the intent. The
   coordinator log is a shared disk, not a CPU-pinned service: the
   decision runs on whatever CPU is driving the transaction (its home
   shard's worker; CPU 0 during recovery). *)
let decide t gid ~slot pairs =
  Ramdisk.wal_append t.coord
    (Ramdisk.Data
       { txn = gid; off = slot_off t slot; bytes = intent_bytes gid pairs });
  Ramdisk.wal_append t.coord (Ramdisk.Commit { txn = gid });
  Ramdisk.wal_force t.coord

(* Retire the intent (its slot's state word back to 0) and free the
   slot. [gid] is already in the coordinator log's committed set, so the
   marker needs no force of its own: if it is lost, recovery merely
   redoes the transaction, which is idempotent (absolute values). *)
let retire t gid ~slot ~force =
  Ramdisk.wal_append t.coord
    (Ramdisk.Data
       { txn = gid; off = slot_off t slot + intent_off_state;
         bytes = Bytes.make 4 '\000' });
  if force then Ramdisk.wal_force t.coord;
  if Ramdisk.should_truncate t.coord then Ramdisk.truncate t.coord;
  t.slot_busy.(slot) <- false

(* One committed coordinator transaction over arbitrary image spans
   (the split protocol's records). All-or-nothing: the WAL replays Data
   records only at their Commit marker, so a crash mid-append loses the
   whole transaction, never a prefix of its effects. *)
let coord_txn t ~force datas =
  let gid = t.next_gid in
  t.next_gid <- gid + 1;
  List.iter
    (fun (off, bytes) ->
      Ramdisk.wal_append t.coord (Ramdisk.Data { txn = gid; off; bytes }))
    datas;
  Ramdisk.wal_append t.coord (Ramdisk.Commit { txn = gid });
  if force then Ramdisk.wal_force t.coord;
  if Ramdisk.should_truncate t.coord then Ramdisk.truncate t.coord

(* Phase-2 commit of one participant. The decision is already durable,
   so a commit that hits log exhaustion (its redo records were absorbed)
   must roll forward, never abort: reset the shard's log and re-apply
   the writes as a fresh transaction. *)
let commit_participant ~sync t s ws =
  sync s;
  let r = t.shards.(s) in
  let pace_here () = sync s in
  match Rlvm.commit ~pace:pace_here r with
  | () -> ()
  | exception Error.Lvm_error (Error.Log_exhausted _) ->
    if Rlvm.in_txn r then Rlvm.abort r;
    Lvm_obs.Counter.incr t.redo_c;
    Rlvm.begin_txn r;
    apply_writes ~sync:pace_here t r ws;
    Rlvm.commit ~pace:pace_here r

let exec_cross ~pace ~detach ~observe t parts writes =
  let gid = t.next_gid in
  t.next_gid <- gid + 1;
  let share = max 1 (t.config.Config.compute / List.length parts) in
  (* The transaction is one logical thread hopping between the
     participant CPUs and the coordinator, and its clock must be
     monotone across the hops: each stage happens after the previous one
     (the 2PC messages impose that order), so a hop onto a CPU whose
     local clock lags the thread advances it — the participant waits for
     the coordinator's message, not the other way round. Without this,
     the thread would issue timed accesses "in the past" after returning
     from a fast CPU to a slow one, which the shared-bus cursor would
     misprice as arbitration waits. [tt] is the thread's clock floor. *)
  let sync_with ~pace tt started s =
    if !started then
      tt :=
        max !tt (Kernel.cpu_time t.k ~cpu:(Kernel.current_cpu t.k));
    started := true;
    Kernel.set_cpu t.k s;
    let lag = !tt - Kernel.cpu_time t.k ~cpu:s in
    if lag > 0 then Kernel.compute t.k lag;
    pace ~cpu:s;
    Kernel.set_cpu t.k s
  in
  let tt = ref 0 in
  let started = ref false in
  let sync s = sync_with ~pace tt started s in
  (* Phase 1: open a transaction on every participant (ascending shard
     order), apply its slice of the writes. Nothing is durable yet. *)
  let rec phase1 = function
    | [] -> None
    | (s, ws) :: rest -> (
      sync s;
      let r = t.shards.(s) in
      match
        Kernel.compute t.k share;
        sync s;
        Rlvm.begin_txn r;
        apply_writes ~sync:(fun () -> sync s) t r ws
      with
      | () -> phase1 rest
      | exception Error.Lvm_error (Error.Log_exhausted _) -> Some s)
  in
  match phase1 parts with
  | Some s ->
    (* Pre-decision overload: abort every opened participant — the
       transaction leaves no trace anywhere. *)
    List.iter
      (fun (p, _) ->
        let r = t.shards.(p) in
        if Rlvm.in_txn r then begin
          Kernel.set_cpu t.k p;
          Rlvm.abort r
        end)
      parts;
    Error (Lvm.Lvm_error.Overloaded { shard = s })
  | None ->
    let home, home_ws, others =
      match parts with
      | (home, ws) :: others -> (home, ws, others)
      | [] -> assert false
    in
    (* Decide on the home worker's CPU (it drives the 2PC). Once the
       force returns the outcome is fixed, so the participants apply
       independently: the home slice commits on this thread, and every
       other participant's phase-2 commit is handed to [detach] — in the
       driver, that is the participant shard's own worker picking up the
       decision and applying it while the home worker moves on
       (presumed-commit 2PC with asynchronous acknowledgements). The
       last participant to finish retires the intent. Each detached
       branch gets its own thread-clock floored at the decision time:
       the branches are causally ordered after the decision but not
       after each other. *)
    let slot = alloc_slot t in
    sync home;
    decide t gid ~slot writes;
    (* The decision fixed the outcome, so the commit timestamp is drawn
       here — one timestamp for every participant. It stays in-flight
       (holding the MVCC watermark below it) until the last phase-2
       commit lands, so no cut can fall between two participants. *)
    let ts = alloc_ts t in
    Hashtbl.replace t.in_flight ts (List.length parts);
    let decided = max !tt (Kernel.cpu_time t.k ~cpu:home) in
    let remaining = ref (List.length parts) in
    (* Whichever participant commits last retires the intent — after
       every sibling's commit, so its clock is floored at the latest of
       their completion times. The commit-latency histogram is observed
       here too: with detached phase-2 branches the transaction is not
       complete when [exec] returns, only when the intent retires. *)
    let retire_if_last btt bsync s =
      decr remaining;
      if !remaining = 0 then begin
        List.iter
          (fun (p, _) -> btt := max !btt (Kernel.cpu_time t.k ~cpu:p))
          parts;
        bsync s;
        retire t gid ~slot ~force:false;
        observe ()
      end
    in
    List.iter
      (fun (s, ws) ->
        detach ~shard:s (fun ~pace ->
            let btt = ref decided in
            let bstarted = ref false in
            let bsync p = sync_with ~pace btt bstarted p in
            commit_participant ~sync:bsync t s ws;
            bsync s;
            Rlvm.flush_commits t.shards.(s);
            cross_done t ts s;
            retire_if_last btt bsync s))
      others;
    commit_participant ~sync t home home_ws;
    sync home;
    Rlvm.flush_commits t.shards.(home);
    cross_done t ts home;
    retire_if_last tt sync home;
    Ok ()

(* {1 Shard-move lifecycle} *)

let active_move t =
  match t.active with None -> None | Some mv -> Some (mv.m_from, mv.m_to)

let move_draining t =
  match t.active with Some { m_phase = Draining; _ } -> true | _ -> false

(* The first moved key a draining move would refuse, with its new
   owner. Drivers consult this before claiming shards so a queued
   transaction that hit the handoff window requeues instead of
   spinning. *)
let blocked_by_move t writes =
  match t.active with
  | Some ({ m_phase = Draining; _ } as mv) ->
    List.find_map
      (fun (key, _) ->
        if key >= 0 && key < t.config.Config.keys
           && mv.m_mask.(key mod t.buckets)
        then Some (key, mv.m_to)
        else None)
      writes
  | _ -> None

let require_move op t =
  match t.active with
  | Some mv -> mv
  | None -> range op "no active move" 0

let split_intent_bytes t ~from_ ~to_ mask =
  let b = Bytes.make (split_slot_bytes t.buckets) '\000' in
  set32 b 0 split_state_copying;
  set32 b 4 from_;
  set32 b 8 to_;
  Array.iteri
    (fun bucket m ->
      if m then begin
        let off = 12 + (4 * (bucket / 32)) in
        set32 b off (get32 b off lor (1 lsl (bucket mod 32)))
      end)
    mask;
  b

let move_begin t ~from_ ~to_ bucket_list =
  if t.active <> None then range "Store.move_begin" "concurrent move" 1;
  let shards = t.config.Config.shards in
  if from_ < 0 || from_ >= shards then range "Store.move_begin" "from" from_;
  if to_ < 0 || to_ >= shards then range "Store.move_begin" "to" to_;
  if from_ = to_ then range "Store.move_begin" "to = from" to_;
  if bucket_list = [] then range "Store.move_begin" "buckets" 0;
  List.iter
    (fun b ->
      if b < 0 || b >= t.buckets then range "Store.move_begin" "bucket" b;
      if t.route.(b) <> from_ then
        range "Store.move_begin" "bucket not owned by from" b)
    bucket_list;
  let mask = Array.make t.buckets false in
  List.iter (fun b -> mask.(b) <- true) bucket_list;
  (* The forced split intent: after this record is durable, a crash at
     any point before cutover recovers by abandoning the move. *)
  Kernel.set_cpu t.k to_;
  coord_txn t ~force:true
    [ (t.split_base, split_intent_bytes t ~from_ ~to_ mask) ];
  t.active <-
    Some
      { m_from = from_; m_to = to_; m_mask = mask; m_cursor = 0;
        m_dirty = Hashtbl.create 61; m_phase = Copying };
  Lvm_obs.Counter.incr t.split_begun_c

(* Copy a batch of key/value pairs into the target shard as one
   committed transaction. Raises [Log_exhausted] (after aborting
   cleanly) if the target's log cannot absorb the batch — the caller
   backs off and retries; the copy cursor only advances on success. *)
let copy_pairs t mv pairs =
  match pairs with
  | [] -> ()
  | pairs -> (
    Kernel.set_cpu t.k mv.m_to;
    let r = t.shards.(mv.m_to) in
    match
      Rlvm.begin_txn r;
      List.iter
        (fun (key, v) -> Rlvm.write_word r ~off:(off_of_key t key) v)
        pairs;
      Rlvm.commit r
    with
    | () ->
      Rlvm.flush_commits r;
      (* The copy batch is an ordinary stamped transaction on the target
         shard: post-cutover snapshots find the moved keys' values there
         at the copy timestamp, below the cutover's route flip. *)
      note_commit t mv.m_to (alloc_ts t);
      Lvm_obs.Counter.add t.split_copied_c (List.length pairs)
    | exception (Error.Lvm_error (Error.Log_exhausted _) as e) ->
      if Rlvm.in_txn r then Rlvm.abort r;
      raise e)

let move_remaining t =
  match t.active with
  | None -> 0
  | Some mv ->
    let n = ref 0 in
    for key = mv.m_cursor to t.config.Config.keys - 1 do
      if mv.m_mask.(key mod t.buckets) then incr n
    done;
    !n

let move_dirty_count t =
  match t.active with None -> 0 | Some mv -> Hashtbl.length mv.m_dirty

let move_copy_step t ~batch =
  if batch < 1 then range "Store.move_copy_step" "batch" batch;
  let mv = require_move "Store.move_copy_step" t in
  if mv.m_phase = Cut_over then
    range "Store.move_copy_step" "phase past copying" 0;
  let pairs = ref [] in
  let n = ref 0 in
  let key = ref mv.m_cursor in
  Kernel.set_cpu t.k mv.m_from;
  let from_r = t.shards.(mv.m_from) in
  while !n < batch && !key < t.config.Config.keys do
    if mv.m_mask.(!key mod t.buckets) then begin
      pairs := (!key, Rlvm.read_word from_r ~off:(off_of_key t !key)) :: !pairs;
      incr n
    end;
    incr key
  done;
  copy_pairs t mv (List.rev !pairs);
  mv.m_cursor <- !key;
  move_remaining t

let move_enter_drain t =
  let mv = require_move "Store.move_enter_drain" t in
  if mv.m_phase <> Copying then
    range "Store.move_enter_drain" "phase past copying" 0;
  mv.m_phase <- Draining

(* Finish the copy: any uncopied tail (the drain may be entered
   mid-copy) plus every dirtied key, re-read from the source so the
   target holds the latest committed values. New writes to moved keys
   are refused ([Moved]) while draining, so the dirty set only
   shrinks. *)
let move_drain t =
  let mv = require_move "Store.move_drain" t in
  if mv.m_phase <> Draining then range "Store.move_drain" "not draining" 0;
  while move_remaining t > 0 do
    ignore (move_copy_step t ~batch:64)
  done;
  let dirty =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) mv.m_dirty [])
  in
  let rec batches = function
    | [] -> ()
    | keys ->
      let rec take n acc = function
        | k :: rest when n > 0 -> take (n - 1) (k :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let chunk, rest = take 32 [] keys in
      Kernel.set_cpu t.k mv.m_from;
      let from_r = t.shards.(mv.m_from) in
      let pairs =
        List.map
          (fun key -> (key, Rlvm.read_word from_r ~off:(off_of_key t key)))
          chunk
      in
      copy_pairs t mv pairs;
      batches rest
  in
  batches dirty;
  Hashtbl.reset mv.m_dirty

let move_cutover t =
  let mv = require_move "Store.move_cutover" t in
  if mv.m_phase <> Draining then range "Store.move_cutover" "not draining" 0;
  let left = move_remaining t + Hashtbl.length mv.m_dirty in
  if left > 0 then range "Store.move_cutover" "copy incomplete" left;
  (* The canonical split-protocol crash window: copy complete on the
     target, route flip not yet durable. *)
  ignore
    (Lvm_machine.Machine.fault_check (Kernel.machine t.k)
       ~site:Lvm_fault.Fault.Split_cutover);
  (* One committed, forced coordinator transaction carries every moved
     bucket's route word plus the intent-state advance: the flip is
     all-or-nothing. *)
  let datas = ref [ (t.split_base, bytes32 split_state_cutover) ] in
  for b = t.buckets - 1 downto 0 do
    if mv.m_mask.(b) then
      datas := (t.route_base + (4 * b), bytes32 (mv.m_to + 1)) :: !datas
  done;
  Kernel.set_cpu t.k mv.m_to;
  coord_txn t ~force:true !datas;
  Array.iteri (fun b m -> if m then t.route.(b) <- mv.m_to) mv.m_mask;
  mv.m_phase <- Cut_over;
  (* The route flip gets its own timestamp: snapshots below it keep
     resolving moved keys through the pre-cutover routing. *)
  mvcc_event t
    (Lvm_mvcc.Route { ts = alloc_ts t; route = Array.copy t.route });
  Lvm_obs.Counter.incr t.split_cutover_c

(* Clear the intent. The cutover transaction is already durable, so the
   marker needs no force: if it is lost, recovery re-retires — same
   route, same result. *)
let move_retire t =
  let mv = require_move "Store.move_retire" t in
  if mv.m_phase <> Cut_over then range "Store.move_retire" "not cut over" 0;
  coord_txn t ~force:false [ (t.split_base, bytes32 0) ];
  t.active <- None

(* Cancel a move before its cutover: ownership never changed, so
   clearing the intent is enough — the target's partial copy is
   unreachable garbage that any later move of the same buckets simply
   overwrites. Unforced for the same reason as [move_retire]: a lost
   clear means recovery aborts the move again, idempotently. *)
let move_abort t =
  let mv = require_move "Store.move_abort" t in
  if mv.m_phase = Cut_over then range "Store.move_abort" "already cut over" 0;
  coord_txn t ~force:false [ (t.split_base, bytes32 0) ];
  t.active <- None;
  Lvm_obs.Counter.incr t.split_aborted_c

(* The whole lifecycle in one synchronous call, for direct callers
   (tests, lvmctl); concurrent drivers run the phases themselves so
   transactions interleave with the copy. *)
let move t ~from_ ~to_ ?(batch = 64) bucket_list =
  move_begin t ~from_ ~to_ bucket_list;
  while move_copy_step t ~batch > 0 do
    ()
  done;
  move_enter_drain t;
  move_drain t;
  move_cutover t;
  move_retire t

(* {1 The front door} *)

let validate t writes =
  let n = List.length writes in
  if n > t.config.Config.max_txn_writes then
    Some
      (Lvm.Lvm_error.Txn_too_large
         { writes = n; limit = t.config.Config.max_txn_writes })
  else
    match
      List.find_opt
        (fun (key, _) -> key < 0 || key >= t.config.Config.keys)
        writes
    with
    | Some (key, _) -> Some (Lvm.Lvm_error.Invalid_key { key })
    | None -> None

let exec ?(pace = no_pace) ?detach t ~writes =
  (* Without a driver-supplied [detach], detached phase-2 branches run
     inline, right here — the synchronous behavior (crash sweeps and
     direct callers see every commit applied before [exec] returns). *)
  let detach =
    match detach with Some d -> d | None -> fun ~shard:_ f -> f ~pace
  in
  match writes with
  | [] -> Ok ()
  | writes -> (
    match validate t writes with
    | Some e -> Error e
    | None -> (
      match blocked_by_move t writes with
      | Some (key, shard) ->
        (* A draining move owns this key's bucket: refuse before any
           state changes so the driver can requeue for the new owner. *)
        Lvm_obs.Counter.incr t.moved_c;
        Error (Lvm.Lvm_error.Moved { key; shard })
      | None ->
        let parts = partition t writes in
        let home = match parts with (s, _) :: _ -> s | [] -> 0 in
        if not (admit t home) then begin
          Lvm_obs.Counter.incr t.shed_c;
          Error (Lvm.Lvm_error.Shed { shard = home })
        end
        else begin
          let before =
            List.map (fun (c, _) -> (c, Kernel.cpu_time t.k ~cpu:c)) parts
          in
          (* Commit latency: CPU cycles burned on the participant shards
             between admission and completion. For a local transaction
             that is when [exec_local] returns; for a cross-shard
             transaction it is when the last participant retires the
             intent — possibly in a detached phase-2 branch, after
             [exec] has returned. *)
          let observe () =
            let cycles =
              List.fold_left
                (fun acc (c, t0) -> acc + (Kernel.cpu_time t.k ~cpu:c - t0))
                0 before
            in
            Lvm_obs.Histogram.observe t.commit_hist cycles
          in
          let result =
            match parts with
            | [ (s, ws) ] -> exec_local ~pace t s ws
            | parts -> exec_cross ~pace ~detach ~observe t parts writes
          in
          (match result with
          | Ok () ->
            List.iter
              (fun (key, _) ->
                let b = key mod t.buckets in
                t.bucket_writes.(b) <- t.bucket_writes.(b) + 1)
              writes;
            (* A committed write to a moved key during the copy phase
               lands on the old owner; remember it so the drain re-copies
               the latest value. *)
            (match t.active with
            | Some ({ m_phase = Copying; _ } as mv) ->
              List.iter
                (fun (key, _) ->
                  if mv.m_mask.(key mod t.buckets) then
                    Hashtbl.replace mv.m_dirty key ())
                writes
            | _ -> ());
            Lvm_obs.Counter.incr t.txns_c;
            (match parts with
            | [ (s, _) ] ->
              observe ();
              Lvm_obs.Counter.incr t.shard_txns.(s)
            | (home, _) :: _ ->
              Lvm_obs.Counter.incr t.cross_c;
              Lvm_obs.Counter.incr t.shard_txns.(home)
            | [] -> ())
          | Error _ -> Lvm_obs.Counter.incr t.overloaded_c);
          result
        end))

let flush t =
  Array.iteri
    (fun s r ->
      Kernel.set_cpu t.k s;
      Rlvm.flush_commits r)
    t.shards;
  Kernel.set_cpu t.k 0

(* {1 Crash recovery} *)

type split_recovery =
  | Split_aborted of { from_ : int; to_ : int }
  | Split_completed of { from_ : int; to_ : int }

type recovery = {
  shard_reports : Ramdisk.recovery array;
  coordinator : Ramdisk.recovery;
  redone : (int * int) list;
  split : split_recovery option;
}

let recover t =
  let shard_reports =
    Array.mapi
      (fun s r ->
        Kernel.set_cpu t.k s;
        Rlvm.recover r)
      t.shards
  in
  Kernel.set_cpu t.k 0;
  let image, coordinator = Ramdisk.recover t.coord in
  (* The crash lost every in-flight transaction; whatever slots they
     held are reconstructed from the recovered image alone. *)
  Array.fill t.slot_busy 0 (Array.length t.slot_busy) false;
  t.active <- None;
  Array.fill t.bucket_writes 0 t.buckets 0;
  (* Every in-flight cross-shard transaction died with the crash; the
     decided ones are re-stamped below as they roll forward. *)
  Hashtbl.reset t.in_flight;
  (* The split intent, if any. State [Copying]: the route never
     changed — abandon the move (the target's partial copy is
     unreachable). State [Cut_over]: the route words are durable in the
     same committed transaction as the state advance — just retire. *)
  let split =
    match get32 image t.split_base with
    | 0 -> None
    | st ->
      let from_ = get32 image (t.split_base + 4) in
      let to_ = get32 image (t.split_base + 8) in
      coord_txn t ~force:true [ (t.split_base, bytes32 0) ];
      if st = split_state_cutover then begin
        Lvm_obs.Counter.incr t.split_cutover_c;
        Some (Split_completed { from_; to_ })
      end
      else begin
        Lvm_obs.Counter.incr t.split_aborted_c;
        Some (Split_aborted { from_; to_ })
      end
  in
  (* Load the route before rolling 2PC intents forward: a decided
     transaction's writes partition under the durable route, which the
     cutover transaction (if it committed) has already flipped. *)
  for b = 0 to t.buckets - 1 do
    let w = get32 image (t.route_base + (4 * b)) in
    t.route.(b) <- (if w = 0 then b mod t.config.Config.shards else w - 1)
  done;
  (* Rebuild the MVCC view from the recovered images before rolling the
     in-doubt transactions forward: the roll-forward commits below are
     ordinary stamped transactions on top of the reset base, so fresh
     snapshots re-derive without seeing a partial redo. Outstanding
     snapshots are invalidated by the reset. *)
  mvcc_event t
    (Lvm_mvcc.Reset { ts = watermark t; route = Array.copy t.route });
  (* Every decided cross-shard transaction that never retired must roll
     forward. Concurrent in-flight transactions touch disjoint shards
     (the driver's claim discipline), so their redo sets are disjoint;
     replay in gid order anyway, for determinism. *)
  let decided = ref [] in
  for slot = Array.length t.slot_busy - 1 downto 0 do
    let base = slot_off t slot in
    if get32 image (base + intent_off_state) = 1 then begin
      let gid = get32 image (base + intent_off_gid) in
      let n = get32 image (base + intent_off_count) in
      let pairs =
        List.init n (fun i ->
            ( get32 image (base + intent_off_pairs + (8 * i)),
              get32 image (base + intent_off_pairs + (8 * i) + 4) ))
      in
      decided := (gid, slot, pairs) :: !decided
    end
  done;
  let decided =
    List.sort (fun (g1, _, _) (g2, _, _) -> compare g1 g2) !decided
  in
  let redone =
    List.map
      (fun (gid, slot, pairs) ->
        (* Redo as fresh committed transactions per participant —
           absolute values, so replaying over an already-applied shard
           is idempotent. *)
        let ts = alloc_ts t in
        List.iter
          (fun (s, ws) ->
            Kernel.set_cpu t.k s;
            let r = t.shards.(s) in
            Rlvm.begin_txn r;
            apply_writes t r ws;
            Rlvm.commit r;
            Rlvm.flush_commits r;
            (* every participant of the redo shares one timestamp, like
               the original transaction would have *)
            note_commit t s ts)
          (partition t pairs);
        Lvm_obs.Counter.incr t.redo_c;
        Kernel.set_cpu t.k 0;
        retire t gid ~slot ~force:true;
        (gid, List.length pairs))
      decided
  in
  Kernel.set_cpu t.k 0;
  (* Reset the admission gates: full buckets, clocks re-anchored at the
     post-recovery CPU times. *)
  Array.iteri
    (fun s g ->
      g.g_tokens <- float_of_int t.config.Config.admission_burst;
      g.g_last <- Kernel.cpu_time t.k ~cpu:s)
    t.gates;
  { shard_reports; coordinator; redone; split }

let recovery_to_string r =
  let shards =
    String.concat "; "
      (Array.to_list
         (Array.mapi
            (fun s rep ->
              Printf.sprintf "shard%d %s" s (Ramdisk.recovery_to_string rep))
            r.shard_reports))
  in
  let base =
    Printf.sprintf "%s | coord %s | redone=%s" shards
      (Ramdisk.recovery_to_string r.coordinator)
      (match r.redone with
      | [] -> "none"
      | l ->
        String.concat ","
          (List.map (fun (gid, n) -> Printf.sprintf "gid=%d writes=%d" gid n) l))
  in
  match r.split with
  | None -> base
  | Some (Split_aborted { from_; to_ }) ->
    base ^ Printf.sprintf " | split aborted %d->%d" from_ to_
  | Some (Split_completed { from_; to_ }) ->
    base ^ Printf.sprintf " | split completed %d->%d" from_ to_

(* {1 Snapshot reads}

   The MVCC view attaches lazily on the first acquire: the per-shard
   WAL batches are flushed and the view's base images are the disks'
   recovered state at the current watermark. Attachment requires
   quiescence — no cross-shard transaction between decision and its
   last phase-2 commit — because a partially-durable transaction would
   fold into the base below its timestamp. Once attached, the view rides
   along: every commit is stamped, cutovers emit route events, and
   crash recovery resets it in place. *)

let attach_view t =
  match t.mvcc with
  | Some v -> Ok v
  | None ->
    if Hashtbl.length t.in_flight > 0 then
      Error
        (Lvm.Lvm_error.Snapshot_unavailable
           { ts = last_ts t; floor = 0; frontier = watermark t })
    else begin
      flush t;
      let base_ts = watermark t in
      let v =
        Lvm_mvcc.View.attach
          { Lvm_mvcc.View.shards = t.config.Config.shards;
            keys = t.config.Config.keys;
            off_of_key = off_of_key t;
            bucket = bucket_of_key t;
            disk = (fun s -> Rlvm.disk t.shards.(s));
            watermark = (fun () -> watermark t);
            route = Array.copy t.route;
            obs = Kernel.obs t.k;
            history = mvcc_history }
          ~base_ts
      in
      t.mvcc <- Some v;
      Ok v
    end

let mvcc_attached t = t.mvcc <> None

module Snapshot = struct
  type store = t
  type t = Lvm_mvcc.snapshot

  let acquire (st : store) =
    match attach_view st with
    | Ok v -> Ok (Lvm_mvcc.acquire v)
    | Error _ as e -> e

  let as_of (st : store) ~ts =
    match attach_view st with
    | Ok v -> Lvm_mvcc.as_of v ~ts
    | Error _ as e -> e

  let read s key = Lvm_mvcc.read s ~key
  let release = Lvm_mvcc.release
  let ts = Lvm_mvcc.snapshot_ts
end
