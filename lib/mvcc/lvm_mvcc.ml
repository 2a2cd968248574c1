(* Multi-version read snapshots derived from the per-shard WALs.

   The view tails each shard's RAM-disk WAL (the same byte stream the
   recovery and replication layers consume) into a versioned word store
   keyed by commit timestamp, and serves lock-free snapshot reads at a
   GVT-style consistent cut — the minimum of the per-shard applied
   frontiers. Commit timestamps are allocated by the store (one global
   clock; a cross-shard transaction carries one timestamp on every
   participant), delivered as [Commit] stamp events; the WAL supplies
   the write payloads, the stamps supply the version order. *)

open Lvm_rvm

type event =
  | Commit of { shard : int; txn : int; ts : int }
  | Route of { ts : int; route : int array }
  | Reset of { ts : int; route : int array }

let mask32 = 0xFFFFFFFF

module View = struct
  type source = {
    shards : int;
    keys : int;
    off_of_key : int -> int;
    bucket : int -> int;
    disk : int -> Ramdisk.t;
    watermark : unit -> int;
    route : int array;
    obs : Lvm_obs.Ctx.t;
    history : int;
  }

  type shard_state = {
    mutable base : Bytes.t; (* every version <= base_ts folded in *)
    mutable base_ts : int;
    mutable phys_cursor : int; (* WAL byte offset of the next unparsed record *)
    stamps : (int, int) Hashtbl.t; (* rlvm txn id -> commit timestamp *)
    pending : (int, (int * Bytes.t) list ref) Hashtbl.t;
        (* open txn id -> (off, new bytes) redo writes, newest first *)
    versions : (int, (int * int) list) Hashtbl.t;
        (* word offset -> (ts, word value) chain, newest first *)
    mutable applied_ts : int;
    mutable stalled : bool;
        (* a durable commit marker whose stamp has not arrived yet: the
           store allocates the timestamp after [Rlvm.commit] returns, and
           the commit path yields to the scheduler in between — the walk
           parks on the marker until the stamp event lands *)
  }

  type t = {
    src : source;
    sh : shard_state array;
    mutable route : int array; (* current routing, bucket -> shard *)
    mutable route_hist : (int * int array) list;
        (* cutover history, newest first; resolves as-of routing *)
    mutable epoch : int; (* bumped by [Reset]: outstanding snapshots die *)
    mutable max_cut : int;
    live : (int, int) Hashtbl.t; (* snapshot id -> ts, the prune floor *)
    mutable next_snap : int;
    c_applied : Lvm_obs.Counter.counter;
    c_snapshots : Lvm_obs.Counter.counter;
    c_asof : Lvm_obs.Counter.counter;
    c_reads : Lvm_obs.Counter.counter;
    c_pruned : Lvm_obs.Counter.counter;
    c_age : Lvm_obs.Counter.counter; (* gauge: staleness of the last cut *)
  }

  let word_at bytes off = Int32.to_int (Bytes.get_int32_le bytes off) land mask32

  (* Latest version of the word at [off] visible at [ts] ([max_int] for
     "newest"): the chain is newest-first, so the first entry at or below
     [ts] wins; the base image backs everything at or below [base_ts]. *)
  let shard_value sh ~off ~ts =
    let rec find = function
      | (ts', v) :: _ when ts' <= ts -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    let chain =
      match Hashtbl.find_opt sh.versions off with Some c -> c | None -> []
    in
    match find chain with Some v -> v | None -> word_at sh.base off

  let push_version sh ~off ~ts ~value =
    let chain =
      match Hashtbl.find_opt sh.versions off with Some c -> c | None -> []
    in
    (* Per-shard commit order is timestamp order under the store's claim
       discipline, so this is an O(1) cons in practice; the insertion
       sort is defensive. A same-timestamp push overwrites (one cross-
       shard transaction writing a word twice coalesces to its final
       value). *)
    let rec ins = function
      | (ts', _) :: rest when ts' = ts -> (ts, value) :: rest
      | (ts', _) :: _ as older when ts' < ts -> (ts, value) :: older
      | newer :: rest -> newer :: ins rest
      | [] -> [ (ts, value) ]
    in
    Hashtbl.replace sh.versions off (ins chain)

  (* Fold one transaction's redo writes in, as one version per touched
     word. The store writes whole aligned words; a write covering only
     part of a word (possible in a raw WAL) merges into its newest
     version. *)
  let apply_writes v sh ~ts writes =
    List.iter
      (fun (off, bytes) ->
        let last = off + Bytes.length bytes in
        let woff = ref (off land lnot 3) in
        while !woff < last do
          let w = !woff in
          let value =
            if w >= off && w + 4 <= last then word_at bytes (w - off)
            else begin
              let b = Bytes.create 4 in
              Bytes.set_int32_le b 0
                (Int32.of_int (shard_value sh ~off:w ~ts:max_int));
              let lo = max off w in
              Bytes.blit bytes (lo - off) b (lo - w) (min last (w + 4) - lo);
              word_at b 0
            end
          in
          push_version sh ~off:w ~ts ~value;
          Lvm_obs.Counter.incr v.c_applied;
          woff := w + 4
        done)
      writes

  let buffer_write sh ~txn ~off bytes =
    match Hashtbl.find_opt sh.pending txn with
    | Some r -> r := (off, bytes) :: !r
    | None -> Hashtbl.replace sh.pending txn (ref [ (off, bytes) ])

  exception Stall of int

  (* Advance one shard's walk over its WAL: buffer redo writes by
     transaction id, apply a transaction when its commit marker and its
     stamp have both arrived. The walk parks (without error) on a marker
     whose stamp is still in flight and on any unforced tail —
     [Ramdisk.wal_fold] never reads past the durable frontier, which is
     what makes group-commit visibility correct for free: acknowledged
     but unforced commits stay invisible, and their stamps hold the
     frontier back (see [frontier]). *)
  let tick_shard v s =
    let sh = v.sh.(s) in
    let commit ~pos txn =
      match Hashtbl.find_opt sh.stamps txn with
      | None ->
        sh.stalled <- true;
        raise (Stall pos)
      | Some ts ->
        let writes =
          match Hashtbl.find_opt sh.pending txn with
          | Some r -> List.rev !r
          | None -> []
        in
        Hashtbl.remove sh.pending txn;
        Hashtbl.remove sh.stamps txn;
        apply_writes v sh ~ts writes;
        if ts > sh.applied_ts then sh.applied_ts <- ts
    in
    sh.stalled <- false;
    sh.phys_cursor <-
      (try
         snd
           (Ramdisk.wal_fold (v.src.disk s) ~off:sh.phys_cursor ~init:()
              ~f:(fun () ~off:pos e ->
                Ramdisk.redo e ~commit:(commit ~pos)
                  ~write:(buffer_write sh)))
       with Stall pos -> pos)

  (* The shard's applied frontier: with a stamped-but-unapplied commit
     (unforced under group commit, or a parked marker) the frontier is
     pinned just below the oldest such stamp; caught fully up it is the
     store's watermark (idle shards must not hold the cut back); mid-walk
     it is the highest applied timestamp. *)
  let frontier v s =
    let sh = v.sh.(s) in
    let unapplied =
      Hashtbl.fold
        (fun _ ts acc ->
          match acc with None -> Some ts | Some m -> Some (Int.min m ts))
        sh.stamps None
    in
    match unapplied with
    | Some ts -> ts - 1
    | None ->
      if (not sh.stalled) && sh.phys_cursor >= Ramdisk.durable_bytes (v.src.disk s)
      then v.src.watermark ()
      else sh.applied_ts

  let floor v =
    Array.fold_left (fun acc sh -> Int.max acc sh.base_ts) min_int v.sh

  (* The consistent cut. Clamping to the running maximum is safe: at the
     moment the cut reached [max_cut], every shard had applied all its
     commits at or below it, and later commits only draw timestamps
     above the watermark — versions at or below an achieved cut are
     immutable. The clamp keeps successive snapshots monotone even while
     a shard is parked on an in-flight stamp. *)
  let cut v =
    let c = ref max_int in
    for s = 0 to v.src.shards - 1 do
      c := Int.min !c (frontier v s)
    done;
    let c = Int.max !c (floor v) in
    if c > v.max_cut then v.max_cut <- c;
    v.max_cut

  let prune_shard v sh ~to_ts =
    let offs = Hashtbl.fold (fun off _ acc -> off :: acc) sh.versions [] in
    List.iter
      (fun off ->
        let chain = Hashtbl.find sh.versions off in
        (* newest first: the first entry at or below [to_ts] folds into
           the base; it and everything older leave the chain *)
        let rec split kept = function
          | (ts, value) :: older when ts <= to_ts ->
            Bytes.set_int32_le sh.base off (Int32.of_int value);
            Lvm_obs.Counter.add v.c_pruned (1 + List.length older);
            List.rev kept
          | newer :: older -> split (newer :: kept) older
          | [] -> List.rev kept
        in
        match split [] chain with
        | [] -> Hashtbl.remove sh.versions off
        | kept -> Hashtbl.replace sh.versions off kept)
      offs;
    sh.base_ts <- to_ts

  (* Fold versions nobody can read anymore into the base images: the
     prune floor trails the cut by [history] timestamps and never passes
     a live snapshot. Route history is trimmed to the entries still
     resolvable above the new floor. *)
  let prune v =
    let c = cut v in
    let live_min = Hashtbl.fold (fun _ ts acc -> min acc ts) v.live max_int in
    let target = min (c - v.src.history) live_min in
    if target > floor v then begin
      Array.iter (fun sh -> prune_shard v sh ~to_ts:target) v.sh;
      let rec trim = function
        | ((ts, _) as e) :: rest when ts > target -> e :: trim rest
        | ((_, _) as e) :: _ -> [ e ] (* newest entry at or below the floor *)
        | [] -> []
      in
      v.route_hist <- trim v.route_hist
    end

  let tick v =
    for s = 0 to v.src.shards - 1 do
      tick_shard v s
    done;
    prune v

  let reset_shard v s ~ts =
    let sh = v.sh.(s) in
    let disk = v.src.disk s in
    sh.base <- Ramdisk.recovered_image disk;
    sh.base_ts <- ts;
    sh.phys_cursor <- Ramdisk.log_bytes disk;
    Hashtbl.reset sh.stamps;
    Hashtbl.reset sh.pending;
    Hashtbl.reset sh.versions;
    sh.applied_ts <- ts;
    sh.stalled <- false

  let event v = function
    | Commit { shard; txn; ts } ->
      Hashtbl.replace v.sh.(shard).stamps txn ts;
      tick_shard v shard
    | Route { ts; route } ->
      v.route <- Array.copy route;
      v.route_hist <- (ts, Array.copy route) :: v.route_hist
    | Reset { ts; route } ->
      (* Recovery rebuilt the world: every committed effect is folded
         into the recovered images, uncommitted WAL residue will never
         see a stamp (rlvm transaction ids are never reused), and
         outstanding snapshots are invalidated by the epoch bump. *)
      v.epoch <- v.epoch + 1;
      Hashtbl.reset v.live;
      v.route <- Array.copy route;
      v.route_hist <- [ (ts, Array.copy route) ];
      v.max_cut <- ts;
      for s = 0 to v.src.shards - 1 do
        reset_shard v s ~ts
      done

  let route_at v ~ts =
    let rec find = function
      | (ts', r) :: _ when ts' <= ts -> r
      | _ :: rest -> find rest
      | [] -> v.route
    in
    find v.route_hist

  let install_hooks v =
    (* Recycling a shard's WAL waits until the view has parsed it in
       full. (Known defect, see docs/MVCC.md: under the store this gate
       never opens.) After a truncation rebuilt the log (only
       unapplied-uncommitted records survive, all of them already
       buffered in [pending]), the cursor resnaps to the rebuilt end. *)
    for s = 0 to v.src.shards - 1 do
      let sh = v.sh.(s) in
      let disk = v.src.disk s in
      Ramdisk.set_truncate_gate disk
        (Some
           (fun () ->
             (not sh.stalled) && sh.phys_cursor >= Ramdisk.log_bytes disk));
      Ramdisk.set_on_truncate disk
        (Some (fun ~removed:_ -> sh.phys_cursor <- Ramdisk.log_bytes disk))
    done

  let attach src ~base_ts =
    if src.shards <= 0 then invalid_arg "Lvm_mvcc.View.attach: no shards";
    let sh =
      Array.init src.shards (fun s ->
          let disk = src.disk s in
          { base = Ramdisk.recovered_image disk;
            base_ts;
            phys_cursor = Ramdisk.log_bytes disk;
            stamps = Hashtbl.create 61;
            pending = Hashtbl.create 7;
            versions = Hashtbl.create 997;
            applied_ts = base_ts;
            stalled = false })
    in
    let obs = src.obs in
    let v =
      { src;
        sh;
        route = Array.copy src.route;
        route_hist = [ (base_ts, Array.copy src.route) ];
        epoch = 0;
        max_cut = base_ts;
        live = Hashtbl.create 31;
        next_snap = 1;
        c_applied = Lvm_obs.Ctx.counter obs "mvcc.applied";
        c_snapshots = Lvm_obs.Ctx.counter obs "mvcc.snapshots";
        c_asof = Lvm_obs.Ctx.counter obs "mvcc.asof";
        c_reads = Lvm_obs.Ctx.counter obs "mvcc.reads";
        c_pruned = Lvm_obs.Ctx.counter obs "mvcc.pruned";
        c_age = Lvm_obs.Ctx.counter obs "mvcc.snapshot_age" }
    in
    install_hooks v;
    v

  let detach v =
    for s = 0 to v.src.shards - 1 do
      let disk = v.src.disk s in
      Ramdisk.set_truncate_gate disk None;
      Ramdisk.set_on_truncate disk None
    done;
    v.epoch <- v.epoch + 1;
    Hashtbl.reset v.live
end

(* {1 Snapshots} *)

type snapshot = {
  v : View.t;
  s_ts : int;
  s_route : int array; (* pinned as-of routing: split/merge cannot move it *)
  s_epoch : int;
  s_id : int;
  mutable s_live : bool;
}

let unavailable v ~ts =
  Lvm.Lvm_error.Snapshot_unavailable
    { ts; floor = View.floor v; frontier = View.cut v }

let make_snapshot (v : View.t) ~ts ~route =
  let id = v.next_snap in
  v.next_snap <- id + 1;
  Hashtbl.replace v.live id ts;
  Lvm_obs.Counter.set v.c_age (v.src.watermark () - ts);
  { v; s_ts = ts; s_route = Array.copy route; s_epoch = v.epoch; s_id = id;
    s_live = true }

let acquire (v : View.t) =
  View.tick v;
  let ts = View.cut v in
  Lvm_obs.Counter.incr v.c_snapshots;
  make_snapshot v ~ts ~route:v.route

let as_of (v : View.t) ~ts =
  View.tick v;
  if ts < View.floor v || ts > View.cut v then Error (unavailable v ~ts)
  else begin
    Lvm_obs.Counter.incr v.c_asof;
    Ok (make_snapshot v ~ts ~route:(View.route_at v ~ts))
  end

let snapshot_ts s = s.s_ts

let release s =
  if s.s_live then begin
    s.s_live <- false;
    Hashtbl.remove s.v.live s.s_id
  end

(* Wait-free once acquired: a read touches only the pinned route array
   and the version chains — no shard worker, no lock, no clock. *)
let read s ~key =
  let v = s.v in
  if (not s.s_live) || s.s_epoch <> v.epoch then Error (unavailable v ~ts:s.s_ts)
  else if key < 0 || key >= v.src.keys then
    Error (Lvm.Lvm_error.Invalid_key { key })
  else begin
    let shard = s.s_route.(v.src.bucket key) in
    let off = v.src.off_of_key key in
    Lvm_obs.Counter.incr v.c_reads;
    Ok (View.shard_value v.sh.(shard) ~off ~ts:s.s_ts)
  end
