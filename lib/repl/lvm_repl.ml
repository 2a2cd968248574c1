open Lvm_vm
module Ramdisk = Lvm_rvm.Ramdisk
module Rlvm = Lvm_rvm.Rlvm
module Fault = Lvm_fault.Fault
module Plan = Lvm_fault.Plan
module Lvm_error = Lvm.Lvm_error

(* Log-shipping replication with hot-standby promotion.

   The primary is an ordinary [Rlvm] machine; its durable WAL byte
   stream doubles as the replication stream. Positions are *logical*
   (cumulative) offsets: each node keeps [base], the logical offset of
   physical log byte 0, advanced by [Ramdisk.set_on_truncate] whenever
   the WAL is recycled, so the stream survives recycling. The primary
   ships whole WAL records — the forced ("sealed") prefix plus a
   bounded [tail_bytes] window of the still-unforced active tail — to
   each replica over a simulated faulty transport, driven by the seeded
   fault [Plan] at the [Net_frame]/[Net_ack] sites, so every schedule
   is deterministic and replayable.

   Replicas append frames verbatim to their own RAM disk and serve
   committed reads through the ordinary recovery path
   ([Ramdisk.recovered_image]) without touching the primary's commit
   path. Acks carry the replica's applied watermark; the primary's
   low-water rule — installed as the WAL's truncate gate — never lets
   the disk recycle bytes an attached replica has not acked. A
   heartbeat failure detector with capped exponential backoff drives
   replica reconnection (Hello) and primary go-back-N retransmission;
   a replica that fell behind a recycled stream, restarted, or lived
   through a failover is caught up with a full-state Resync frame.

   Promotion (harness-driven: the crash sweep kills the primary
   mid-stream) picks the standby with the highest applied watermark,
   folds its received log into its image — dropping any uncommitted
   tail, i.e. transactions of the dead primary that never committed —
   recovers its [Rlvm] from that state and bumps the cluster epoch.
   Epoch fencing discards stale in-flight frames, and surviving
   replicas re-attach to the new primary (resyncing when their history
   diverges). *)

module Config = struct
  type t = {
    size : int;  (** replicated segment bytes (keys = size/4 words) *)
    log_pages : int;
    group : int;  (** group-commit batch on the primary *)
    replicas : int;
    heartbeat_every : int;  (** primary heartbeat period, ticks *)
    timeout : int;  (** failure-detector / retransmit timeout, ticks *)
    obs : Lvm_obs.Ctx.t option;
  }

  let default =
    { size = 256; log_pages = 8; group = 1; replicas = 2; heartbeat_every = 4;
      timeout = 12; obs = None }
end

let frame_bytes = 512 (* soft cap on a Data frame's payload *)
let tail_bytes = 4096 (* unforced active-tail window shipped ahead *)
let latency = 1 (* transport delivery latency, ticks *)
let backoff_cap = 8 (* max backoff multiplier *)
let detach_after = 96 (* primary detaches a silent replica, ticks *)

module Frame = struct
  type t =
    | Data of { epoch : int; pos : int; payload : Bytes.t; forced : int }
        (** Whole WAL records at logical stream offset [pos]; [forced]
            is the primary's durable (sealed) watermark. *)
    | Heartbeat of { epoch : int; stream_end : int; forced : int }
    | Resync of { epoch : int; base : int; image : Bytes.t; log : Bytes.t }
        (** Full-state catch-up: replace image and log, restart the
            stream at [base + length log]. *)
    | Ack of { replica : int; epoch : int; upto : int }
    | Hello of { replica : int; epoch : int; from : int }

  let kind_name = function
    | Data _ -> "data"
    | Heartbeat _ -> "heartbeat"
    | Resync _ -> "resync"
    | Ack _ -> "ack"
    | Hello _ -> "hello"
end

(* {1 The faulty transport}

   One unidirectional link per (direction, replica): data links carry
   primary->replica frames ([Net_frame] site), ack links carry
   replica->primary frames ([Net_ack] site). Delivery is a priority
   queue on (deliver_at, order); faults injected by the plan at send
   time drop, delay, duplicate or reorder the frame. Iteration order
   over links and frames is fixed, so a fixed plan seed yields a
   byte-identical schedule. *)

module Transport = struct
  type packet = { deliver_at : int; order : int; frame : Frame.t }

  type t = {
    mutable plan : Plan.t option;
    links : packet list ref array;
    mutable next_order : int;
    c_sent : Lvm_obs.Counter.counter;
    c_delivered : Lvm_obs.Counter.counter;
    c_dropped : Lvm_obs.Counter.counter;
    c_delayed : Lvm_obs.Counter.counter;
    c_duped : Lvm_obs.Counter.counter;
    c_reordered : Lvm_obs.Counter.counter;
  }

  let create ~obs ~links =
    let c name = Lvm_obs.Ctx.counter obs ("repl." ^ name) in
    { plan = None;
      links = Array.init links (fun _ -> ref []);
      next_order = 0;
      c_sent = c "frames_sent"; c_delivered = c "frames_delivered";
      c_dropped = c "frames_dropped"; c_delayed = c "frames_delayed";
      c_duped = c "frames_duped"; c_reordered = c "frames_reordered" }

  let set_plan t p = t.plan <- p

  let enqueue t ~link ~deliver_at ?order frame =
    let order =
      match order with
      | Some o -> o
      | None ->
        let o = t.next_order in
        t.next_order <- o + 1;
        o
    in
    let q = t.links.(link) in
    q := { deliver_at; order; frame } :: !q

  let send t ~link ~site ~now frame =
    Lvm_obs.Counter.incr t.c_sent;
    let fault =
      match t.plan with
      | None -> None
      | Some p -> Plan.check p ~site ~cycle:now
    in
    let at = now + latency in
    match fault with
    | Some Fault.Net_drop ->
      (* also the interpretation of any non-transport kind scheduled at
         a transport site: the frame is lost *)
      Lvm_obs.Counter.incr t.c_dropped
    | Some (Fault.Net_delay { ticks }) ->
      Lvm_obs.Counter.incr t.c_delayed;
      enqueue t ~link ~deliver_at:(at + max 1 ticks) frame
    | Some Fault.Net_dup ->
      Lvm_obs.Counter.incr t.c_duped;
      enqueue t ~link ~deliver_at:at frame;
      enqueue t ~link ~deliver_at:at frame
    | Some Fault.Net_reorder -> (
      Lvm_obs.Counter.incr t.c_reordered;
      (* overtake everything still in flight on this link; with an
         empty pipe there is nothing to pass, so degrade to a one-tick
         delay (it may still swap with the next send) *)
      match !(t.links.(link)) with
      | [] -> enqueue t ~link ~deliver_at:(at + 1) frame
      | packets ->
        let min_at =
          List.fold_left (fun a p -> min a p.deliver_at) max_int packets
        in
        let min_order =
          List.fold_left (fun a p -> min a p.order) max_int packets
        in
        enqueue t ~link ~deliver_at:(min min_at at)
          ~order:(min_order - 1) frame)
    | Some _ -> Lvm_obs.Counter.incr t.c_dropped
    | None -> enqueue t ~link ~deliver_at:at frame

  (* Frames whose delivery time has come, in (deliver_at, order) order. *)
  let pop t ~link ~now =
    let q = t.links.(link) in
    let due, rest =
      List.partition (fun p -> p.deliver_at <= now) !q
    in
    q := rest;
    let due =
      List.sort
        (fun a b ->
          match compare a.deliver_at b.deliver_at with
          | 0 -> compare a.order b.order
          | c -> c)
        due
    in
    List.iter (fun _ -> Lvm_obs.Counter.incr t.c_delivered) due;
    List.map (fun p -> p.frame) due

  let flush t ~link = t.links.(link) := []
end

(* {1 Nodes}

   Every cluster member is a full machine: its own kernel, [Rlvm] and
   RAM disk. [base] is the logical stream offset of physical log byte 0
   of its disk, kept current across WAL recycling by the on-truncate
   observer. *)

type node = {
  nk : Kernel.t;
  nr : Rlvm.t;
  ndisk : Ramdisk.t;
  mutable nbase : int;
}

type peer = {
  (* primary-side replication state for one replica *)
  mutable attached : bool;
  mutable sent : int;  (* logical stream bytes shipped *)
  mutable acked : int;  (* logical stream bytes acked *)
  mutable last_tx : int;
  mutable last_rx : int;
  mutable last_progress : int;
  mutable backoff : int;
}

type replica = {
  id : int;
  rnode : node;
  mutable repoch : int;
  mutable alive : bool;
  mutable connected : bool;
  mutable last_heard : int;
  mutable next_hello : int;
  mutable rbackoff : int;
}

type t = {
  cfg : Config.t;
  obs : Lvm_obs.Ctx.t;
  net : Transport.t;
  replicas : replica array;
  mutable peers : peer array;
  mutable primary : node option;  (* None between a kill and a promote *)
  mutable promoted : int option;  (* replica currently serving as primary *)
  mutable epoch : int;
  mutable now : int;
  mutable killed_at : int option;
  c_retrans : Lvm_obs.Counter.counter;
  c_fenced : Lvm_obs.Counter.counter;
  c_acks : Lvm_obs.Counter.counter;
  c_heartbeats : Lvm_obs.Counter.counter;
  c_hellos : Lvm_obs.Counter.counter;
  c_resyncs : Lvm_obs.Counter.counter;
  c_disconnects : Lvm_obs.Counter.counter;
  c_detaches : Lvm_obs.Counter.counter;
  c_promotions : Lvm_obs.Counter.counter;
  g_stream_end : Lvm_obs.Counter.counter;
  g_min_acked : Lvm_obs.Counter.counter;
  g_lag : Lvm_obs.Counter.counter;
  h_lag : Lvm_obs.Histogram.t;
  h_failover : Lvm_obs.Histogram.t;
  h_retrans : Lvm_obs.Histogram.t;
}

let range op what value =
  Error.raise_ (Error.Out_of_range { op; what; value })

let data_link _t i = i
let ack_link t i = t.cfg.Config.replicas + i

let log_end_of n = n.nbase + Ramdisk.log_bytes n.ndisk
let forced_end_of n = n.nbase + Ramdisk.forced_bytes n.ndisk
let applied_of rep = log_end_of rep.rnode

(* The ship horizon: the sealed (forced) stream plus a bounded window
   of the active, still-unforced tail. *)
let ship_end_of n =
  min (log_end_of n) (forced_end_of n + tail_bytes)

let make_node t =
  let k = Kernel.create ~obs:t.obs () in
  let sp = Kernel.create_space k in
  let r =
    Rlvm.make
      { Rlvm.Config.log_pages = t.cfg.Config.log_pages;
        max_log_pages = None; group = t.cfg.Config.group }
      k sp ~size:t.cfg.Config.size
  in
  let n = { nk = k; nr = r; ndisk = Rlvm.disk r; nbase = 0 } in
  Ramdisk.set_on_truncate n.ndisk
    (Some (fun ~removed -> n.nbase <- n.nbase + removed));
  n

(* A standby is a live replica not currently serving as the primary. *)
let is_standby t rep = rep.alive && t.promoted <> Some rep.id

(* The low-water rule: recycling is allowed only once every attached
   standby has acked everything the log currently holds. *)
let install_gate t n =
  Ramdisk.set_truncate_gate n.ndisk
    (Some
       (fun () ->
         let log_end = log_end_of n in
         let ok = ref true in
         Array.iteri
           (fun i p ->
             if is_standby t t.replicas.(i) && p.attached
                && p.acked < log_end
             then ok := false)
           t.peers;
         !ok))

let fresh_peers t ~base =
  Array.init t.cfg.Config.replicas (fun _ ->
      { attached = false; sent = base; acked = base; last_tx = t.now;
        last_rx = t.now; last_progress = t.now; backoff = 1 })

let create ?plan (cfg : Config.t) =
  if cfg.Config.size <= 0 || cfg.Config.size mod 4 <> 0 then
    Error.raise_
      (Error.Invalid
         { op = "Repl.create";
           reason = "size must be a positive word multiple" });
  if cfg.Config.replicas < 1 then
    range "Repl.create" "replicas" cfg.Config.replicas;
  if cfg.Config.heartbeat_every < 1 then
    range "Repl.create" "heartbeat_every" cfg.Config.heartbeat_every;
  if cfg.Config.timeout < 1 || cfg.Config.timeout > detach_after then
    range "Repl.create" "timeout" cfg.Config.timeout;
  let obs =
    match cfg.Config.obs with Some o -> o | None -> Lvm_obs.Ctx.create ()
  in
  let net =
    Transport.create ~obs ~links:(2 * cfg.Config.replicas)
  in
  Transport.set_plan net plan;
  let c name = Lvm_obs.Ctx.counter obs ("repl." ^ name) in
  let h name =
    Lvm_obs.Ctx.histogram obs ~name:("repl." ^ name)
      ~bounds:(Lvm_obs.Histogram.pow2_bounds ~max_exp:20)
  in
  let t =
    { cfg; obs; net;
      replicas = [||]; peers = [||]; primary = None; promoted = None;
      epoch = 1; now = 0; killed_at = None;
      c_retrans = c "retransmits"; c_fenced = c "frames_fenced";
      c_acks = c "acks"; c_heartbeats = c "heartbeats";
      c_hellos = c "hellos"; c_resyncs = c "resyncs";
      c_disconnects = c "disconnects"; c_detaches = c "detaches";
      c_promotions = c "promotions";
      g_stream_end = c "stream_end"; g_min_acked = c "min_acked";
      g_lag = c "lag_bytes";
      h_lag = h "lag_bytes"; h_failover = h "failover_ticks";
      h_retrans = h "retransmit_bytes" }
  in
  let replicas =
    Array.init cfg.Config.replicas (fun id ->
        { id; rnode = make_node t; repoch = t.epoch; alive = true;
          connected = true; last_heard = 0; next_hello = 0; rbackoff = 1 })
  in
  let t = { t with replicas } in
  let p = make_node t in
  t.primary <- Some p;
  t.peers <- fresh_peers t ~base:0;
  Array.iter (fun peer -> peer.attached <- true) t.peers;
  install_gate t p;
  t

let set_net_plan t plan = Transport.set_plan t.net plan
let obs t = t.obs
let epoch t = t.epoch
let now t = t.now
let promoted t = t.promoted
let keys t = t.cfg.Config.size / 4

let primary_node t =
  match t.primary with
  | Some n -> n
  | None ->
    Error.raise_
      (Error.Invalid { op = "Repl.primary"; reason = "primary is dead" })

(* {1 Serving} *)

let check_key t ~op key =
  if key < 0 || key >= keys t then range op "key" key

let exec t ~writes =
  match
    List.find_opt (fun (key, _) -> key < 0 || key >= keys t) writes
  with
  | Some (key, _) -> Error (Lvm_error.Invalid_key { key })
  | None ->
    Lvm_error.guard @@ fun () ->
    let p = primary_node t in
    Rlvm.begin_txn p.nr;
    List.iter (fun (key, v) -> Rlvm.write_word p.nr ~off:(key * 4) v) writes;
    Rlvm.commit p.nr

let read t key =
  check_key t ~op:"Repl.read" key;
  let p = primary_node t in
  Rlvm.read_word p.nr ~off:(key * 4)

(* Committed read off a standby: the recovered image, never the
   primary's commit path. *)
let replica_read t i key =
  check_key t ~op:"Repl.replica_read" key;
  let rep = t.replicas.(i) in
  let img = Ramdisk.recovered_image rep.rnode.ndisk in
  Int32.to_int (Bytes.get_int32_le img (key * 4)) land 0xFFFFFFFF

(* {1 The protocol pump} *)

(* Largest record-aligned physical end in (start, limit], soft-capped
   at [frame_bytes] but always admitting at least one whole record. *)
let chunk_end_phys disk ~start ~limit ~frame_bytes =
  let soft = min limit (start + frame_bytes) in
  let rec go e =
    match Ramdisk.record_end disk ~off:e with
    | Some ne when ne <= soft || (e = start && ne <= limit) -> go ne
    | Some _ | None -> e
  in
  go start

let send_resync t rep ~link =
  let p = primary_node t in
  let image = Ramdisk.image_read p.ndisk ~off:0 ~len:t.cfg.Config.size in
  let limit = ship_end_of p - p.nbase in
  let limit =
    (* never split a record: back down to a record boundary *)
    chunk_end_phys p.ndisk ~start:0 ~limit ~frame_bytes:limit
  in
  let log = Ramdisk.log_read p.ndisk ~off:0 ~len:limit in
  Lvm_obs.Counter.incr t.c_resyncs;
  Transport.send t.net ~link ~site:Fault.Net_frame ~now:t.now
    (Frame.Resync { epoch = t.epoch; base = p.nbase; image; log });
  let peer = t.peers.(rep.id) in
  peer.attached <- true;
  peer.sent <- p.nbase + limit;
  peer.last_tx <- t.now;
  peer.last_progress <- t.now

let primary_handle_ack t frame =
  match frame with
  | Frame.Ack { replica; epoch; upto } ->
    Lvm_obs.Counter.incr t.c_acks;
    if epoch <> t.epoch then Lvm_obs.Counter.incr t.c_fenced
    else begin
      let peer = t.peers.(replica) in
      peer.last_rx <- t.now;
      if peer.attached && upto > peer.acked then begin
        peer.acked <- upto;
        peer.last_progress <- t.now;
        peer.backoff <- 1
      end
    end
  | Frame.Hello { replica; epoch; from } ->
    let peer = t.peers.(replica) in
    peer.last_rx <- t.now;
    let p = primary_node t in
    let rep = t.replicas.(replica) in
    if epoch < t.epoch || from < p.nbase || from > log_end_of p then
      (* stale epoch, recycled-past bytes, or divergent history (a
         standby that outran a promoted primary): full resync *)
      send_resync t rep ~link:(data_link t replica)
    else begin
      peer.attached <- true;
      peer.sent <- from;
      peer.acked <- min peer.acked from;
      peer.last_progress <- t.now;
      peer.backoff <- 1
    end
  | Frame.Data _ | Frame.Heartbeat _ | Frame.Resync _ -> ()

let primary_tick t =
  match t.primary with
  | None -> ()
  | Some p ->
    let cfg = t.cfg in
    (* 1. drain ack links *)
    Array.iter
      (fun rep ->
        List.iter (primary_handle_ack t)
          (Transport.pop t.net ~link:(ack_link t rep.id) ~now:t.now))
      t.replicas;
    (* 2. recycle: the commit path can never truncate under the gate
       (its own fresh bytes are unacked by construction), so the WAL is
       recycled here, once the acks that free the low-water mark have
       been drained *)
    if Ramdisk.should_truncate p.ndisk then Ramdisk.truncate p.ndisk;
    (* 3. ship / heartbeat / retransmit per peer *)
    let ship_end = ship_end_of p in
    Array.iter
      (fun rep ->
        let i = rep.id in
        let peer = t.peers.(i) in
        if t.promoted <> Some i then begin
          (* retransmit: no ack progress for a full (backed-off)
             timeout window — go back to the acked watermark *)
          if peer.attached && peer.acked < peer.sent
             && t.now - peer.last_progress
                > cfg.Config.timeout * peer.backoff
          then begin
            Lvm_obs.Counter.incr t.c_retrans;
            Lvm_obs.Histogram.observe t.h_retrans (peer.sent - peer.acked);
            peer.sent <- peer.acked;
            peer.backoff <- min (peer.backoff * 2) backoff_cap;
            peer.last_progress <- t.now
          end;
          (* detach a replica that has been silent for long enough:
             its unacked bytes stop holding up WAL recycling, and it
             will resync when it comes back *)
          if peer.attached && t.now - peer.last_rx > detach_after
          then begin
            peer.attached <- false;
            Lvm_obs.Counter.incr t.c_detaches
          end;
          if peer.attached && peer.sent < ship_end then begin
            let start = peer.sent - p.nbase in
            let stop =
              chunk_end_phys p.ndisk ~start ~limit:(ship_end - p.nbase)
                ~frame_bytes
            in
            if stop > start then begin
              let payload =
                Ramdisk.log_read p.ndisk ~off:start ~len:(stop - start)
              in
              if peer.acked = peer.sent then peer.last_progress <- t.now;
              Transport.send t.net ~link:(data_link t i)
                ~site:Fault.Net_frame ~now:t.now
                (Frame.Data
                   { epoch = t.epoch; pos = peer.sent; payload;
                     forced = forced_end_of p });
              peer.sent <- p.nbase + stop;
              peer.last_tx <- t.now
            end
          end
          else if peer.attached
                  && t.now - peer.last_tx >= cfg.Config.heartbeat_every
          then begin
            (* heartbeats go only to attached peers: a detached replica
               must win re-attachment with a Hello, so its detector has
               to keep firing — feeding it liveness would wedge both
               sides into a mutual wait *)
            Lvm_obs.Counter.incr t.c_heartbeats;
            Transport.send t.net ~link:(data_link t i)
              ~site:Fault.Net_frame ~now:t.now
              (Frame.Heartbeat
                 { epoch = t.epoch; stream_end = ship_end;
                   forced = forced_end_of p });
            peer.last_tx <- t.now
          end
        end)
      t.replicas;
    (* 4. gauges *)
    let min_acked =
      Array.to_list t.peers
      |> List.filteri (fun i _ -> is_standby t t.replicas.(i))
      |> List.filter (fun peer -> peer.attached)
      |> List.fold_left (fun acc peer -> min acc peer.acked) max_int
    in
    let min_acked = if min_acked = max_int then ship_end else min_acked in
    Lvm_obs.Counter.set t.g_stream_end ship_end;
    Lvm_obs.Counter.set t.g_min_acked min_acked;
    Lvm_obs.Counter.set t.g_lag (max 0 (ship_end - min_acked));
    Lvm_obs.Histogram.observe t.h_lag (max 0 (ship_end - min_acked))

let send_ack t rep =
  Transport.send t.net ~link:(ack_link t rep.id) ~site:Fault.Net_ack
    ~now:t.now
    (Frame.Ack
       { replica = rep.id; epoch = rep.repoch; upto = applied_of rep })

let replica_heard t rep =
  rep.last_heard <- t.now;
  rep.connected <- true;
  rep.rbackoff <- 1

(* A frame stamped with a newer epoch means a failover happened while
   we were not looking: adopt the epoch and re-attach through Hello so
   the new primary can resync us if our history diverged. *)
let adopt_epoch t rep epoch =
  rep.repoch <- epoch;
  rep.connected <- false;
  rep.next_hello <- t.now

let replica_handle t rep frame =
  match frame with
  | Frame.Data { epoch; pos; payload; forced = _ } ->
    if epoch < rep.repoch then Lvm_obs.Counter.incr t.c_fenced
    else if epoch > rep.repoch then adopt_epoch t rep epoch
    else begin
      replica_heard t rep;
      let applied = applied_of rep in
      if pos = applied then begin
        Ramdisk.log_append_raw rep.rnode.ndisk payload;
        (* replicas recycle their own copy of the stream independently
           (no gate: nothing downstream of a standby by default) *)
        if Ramdisk.should_truncate rep.rnode.ndisk then
          Ramdisk.truncate rep.rnode.ndisk
      end;
      (* duplicate (pos < applied) and gap (pos > applied) frames are
         dropped; the cumulative ack below tells the primary where we
         really are, and its timeout resends the missing window *)
      send_ack t rep
    end
  | Frame.Heartbeat { epoch; stream_end = _; forced = _ } ->
    if epoch < rep.repoch then Lvm_obs.Counter.incr t.c_fenced
    else if epoch > rep.repoch then adopt_epoch t rep epoch
    else begin
      replica_heard t rep;
      send_ack t rep
    end
  | Frame.Resync { epoch; base; image; log } ->
    if epoch < rep.repoch then Lvm_obs.Counter.incr t.c_fenced
    else begin
      rep.repoch <- epoch;
      replica_heard t rep;
      Ramdisk.load_state rep.rnode.ndisk ~image ~log;
      rep.rnode.nbase <- base;
      send_ack t rep
    end
  | Frame.Ack _ | Frame.Hello _ -> ()

let replica_tick t rep =
  if is_standby t rep then begin
    List.iter (replica_handle t rep)
      (Transport.pop t.net ~link:(data_link t rep.id) ~now:t.now);
    (* heartbeat failure detector *)
    if rep.connected && t.now - rep.last_heard > t.cfg.Config.timeout
    then begin
      rep.connected <- false;
      rep.rbackoff <- 1;
      rep.next_hello <- t.now;
      Lvm_obs.Counter.incr t.c_disconnects
    end;
    (* reconnect with capped exponential backoff *)
    if (not rep.connected) && t.now >= rep.next_hello then begin
      Lvm_obs.Counter.incr t.c_hellos;
      Transport.send t.net ~link:(ack_link t rep.id) ~site:Fault.Net_ack
        ~now:t.now
        (Frame.Hello
           { replica = rep.id; epoch = rep.repoch; from = applied_of rep });
      rep.next_hello <- t.now + (t.cfg.Config.timeout * rep.rbackoff);
      rep.rbackoff <- min (rep.rbackoff * 2) backoff_cap
    end
  end

let tick t =
  primary_tick t;
  Array.iter (fun rep -> replica_tick t rep) t.replicas;
  t.now <- t.now + 1

let step ?(ticks = 1) t =
  if ticks < 0 then range "Repl.step" "ticks" ticks;
  for _ = 1 to ticks do tick t done

(* {1 Failure and promotion} *)

let kill_primary t =
  (match t.primary with
  | None -> Error.raise_ (Error.Invalid { op = "Repl.kill_primary";
                                          reason = "primary already dead" })
  | Some p -> Ramdisk.set_truncate_gate p.ndisk None);
  (match t.promoted with
  | Some i -> t.replicas.(i).alive <- false
  | None -> ());
  t.primary <- None;
  t.killed_at <- Some t.now

let kill_replica t i =
  if t.promoted = Some i then
    Error.raise_
      (Error.Invalid { op = "Repl.kill_replica";
                       reason = "replica is the serving primary" });
  t.replicas.(i).alive <- false

(* Restart = the replica process comes back with its disk intact and
   its volatile protocol state (epoch included) gone: it re-Hellos and
   the primary decides between fast catch-up and full resync. *)
let restart_replica t i =
  let rep = t.replicas.(i) in
  if t.promoted = Some i then
    Error.raise_
      (Error.Invalid { op = "Repl.restart_replica";
                       reason = "replica is the serving primary" });
  ignore (Ramdisk.recover rep.rnode.ndisk);
  rep.alive <- true;
  rep.repoch <- 0;
  rep.connected <- false;
  rep.rbackoff <- 1;
  rep.next_hello <- t.now;
  Transport.flush t.net ~link:(data_link t i)

type promotion = {
  new_primary : int;
  new_epoch : int;
  applied_bytes : int;  (** logical stream bytes the winner had applied *)
  folded_bytes : int;  (** received log bytes folded into its image *)
  failover_ticks : int;  (** ticks from the kill to serving *)
}

let promote t =
  if t.primary <> None then
    Error.raise_
      (Error.Invalid { op = "Repl.promote";
                       reason = "primary is still serving" });
  let best = ref None in
  Array.iter
    (fun rep ->
      if rep.alive then
        match !best with
        | Some b when applied_of t.replicas.(b) >= applied_of rep -> ()
        | _ -> best := Some rep.id)
    t.replicas;
  match !best with
  | None ->
    Error.raise_
      (Error.Invalid { op = "Repl.promote"; reason = "no live replica" })
  | Some i ->
    let rep = t.replicas.(i) in
    let n = rep.rnode in
    t.epoch <- t.epoch + 1;
    rep.repoch <- t.epoch;
    let applied_bytes = applied_of rep in
    (* Fold the received stream into the image: committed transactions
       apply, the uncommitted tail — transactions of the dead primary
       that never committed — is dropped, so fresh transaction ids can
       never resurrect stale Data records. *)
    let folded = Ramdisk.log_bytes n.ndisk in
    let image = Ramdisk.recovered_image n.ndisk in
    Ramdisk.load_state n.ndisk ~image ~log:Bytes.empty;
    n.nbase <- n.nbase + folded;
    ignore (Rlvm.recover n.nr);
    t.promoted <- Some i;
    t.primary <- Some n;
    t.peers <- fresh_peers t ~base:n.nbase;
    install_gate t n;
    Lvm_obs.Counter.incr t.c_promotions;
    let failover_ticks =
      match t.killed_at with Some at -> t.now - at | None -> 0
    in
    Lvm_obs.Histogram.observe t.h_failover failover_ticks;
    t.killed_at <- None;
    { new_primary = i; new_epoch = t.epoch; applied_bytes;
      folded_bytes = folded; failover_ticks }

(* {1 Harness accessors} *)

let stream_end t = log_end_of (primary_node t)
let replica_applied t i = applied_of t.replicas.(i)
let replica_acked t i = t.peers.(i).acked
let replica_alive t i = t.replicas.(i).alive
let replica_attached t i = t.peers.(i).attached
let replica_connected t i = t.replicas.(i).connected

(* Re-run crash recovery on the serving primary; committed effects are
   durable and uncommitted ones invisible, so this must be a no-op
   between transactions (the sweep's double-recovery check). *)
let rerecover t = ignore (Rlvm.recover (primary_node t).nr)

(* {1 Convergence and stats} *)

let converged t =
  match t.primary with
  | None -> false
  | Some p ->
    let log_end = log_end_of p in
    Array.for_all
      (fun rep ->
        (not (is_standby t rep))
        || (applied_of rep = log_end && t.peers.(rep.id).acked = log_end))
      t.replicas

(* Pump the protocol until every live standby has applied and acked the
   whole stream, or 10 000 ticks elapse. *)
let sync t =
  let rec go budget =
    if converged t then true
    else if budget = 0 then false
    else begin
      tick t;
      go (budget - 1)
    end
  in
  go 10_000

type replica_stat = {
  rid : int;
  alive : bool;
  connected : bool;
  attached : bool;
  applied : int;
  acked : int;
  lag : int;
}

type stats = {
  s_epoch : int;
  s_now : int;
  s_primary : string;  (** ["p0"], ["r<i>"] after a failover, ["dead"] *)
  s_stream_end : int;
  s_base : int;
  s_min_acked : int;
  s_replicas : replica_stat array;
  frames_sent : int;
  frames_delivered : int;
  frames_dropped : int;
  frames_delayed : int;
  frames_duped : int;
  frames_reordered : int;
  retransmits : int;
  fenced : int;
  acks : int;
  heartbeats : int;
  hellos : int;
  resyncs : int;
  disconnects : int;
  detaches : int;
  promotions : int;
}

let stats t =
  let v c = Lvm_obs.Counter.value c in
  let stream_end, base =
    match t.primary with
    | Some p -> (ship_end_of p, p.nbase)
    | None -> (0, 0)
  in
  let s_replicas =
    Array.map
      (fun rep ->
        let peer = t.peers.(rep.id) in
        { rid = rep.id; alive = rep.alive; connected = rep.connected;
          attached = peer.attached; applied = applied_of rep;
          acked = peer.acked;
          lag = max 0 (stream_end - peer.acked) })
      t.replicas
  in
  let min_acked =
    Array.fold_left
      (fun acc (s : replica_stat) ->
        if s.attached then min acc s.acked else acc)
      max_int s_replicas
  in
  { s_epoch = t.epoch; s_now = t.now;
    s_primary =
      (match (t.primary, t.promoted) with
      | None, _ -> "dead"
      | Some _, Some i -> Printf.sprintf "r%d" i
      | Some _, None -> "p0");
    s_stream_end = stream_end; s_base = base;
    s_min_acked = (if min_acked = max_int then stream_end else min_acked);
    s_replicas;
    frames_sent = v t.net.Transport.c_sent;
    frames_delivered = v t.net.Transport.c_delivered;
    frames_dropped = v t.net.Transport.c_dropped;
    frames_delayed = v t.net.Transport.c_delayed;
    frames_duped = v t.net.Transport.c_duped;
    frames_reordered = v t.net.Transport.c_reordered;
    retransmits = v t.c_retrans; fenced = v t.c_fenced; acks = v t.c_acks;
    heartbeats = v t.c_heartbeats; hellos = v t.c_hellos;
    resyncs = v t.c_resyncs; disconnects = v t.c_disconnects;
    detaches = v t.c_detaches; promotions = v t.c_promotions }
