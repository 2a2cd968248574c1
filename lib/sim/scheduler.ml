open Lvm_machine
open Lvm_vm

type stats = {
  mutable events_processed : int;
  mutable events_committed : int;
  mutable rollbacks : int;
  mutable anti_messages_sent : int;
  mutable annihilations : int;
  mutable stragglers : int;
}

type ctx = {
  self : int;
  now : int;
  read : int -> int;
  write : int -> int -> unit;
  send : dst:int -> delay:int -> payload:int -> unit;
  compute : int -> unit;
}

type app = {
  n_objects : int;
  object_words : int;
  init_word : obj:int -> word:int -> int;
  handle : ctx -> payload:int -> unit;
}

type processed = {
  event : Event.t;
  sent : Event.t list; (* send order *)
  save_off : int; (* copy-based: slot holding the pre-state of the event's
                     object in the save area *)
}

type t = {
  id : int;
  n_schedulers : int;
  strategy : State_saving.t;
  app : app;
  k : Kernel.t;
  cpu : int; (* which CPU of [k] this scheduler is pinned to *)
  space : Address_space.t;
  working : Segment.t;
  checkpoint : Segment.t;
  region : Region.t;
  base : int;
  ls : Segment.t option;
  save_seg : Segment.t option;
  save_slots : int; (* capacity of the save area, in object-sized slots *)
  mutable save_free : int list; (* recycled slots *)
  mutable save_next : int; (* high-water mark *)
  lvt_cell_off : int;
  n_local : int;
  mutable lvt : int;
  mutable checkpoint_time : int;
  mutable queue : Event_queue.t;
  mutable processed : processed list; (* newest first *)
  mutable outbox : (int * Event.msg) list; (* newest first *)
  mutable anti_pending : Event.t list;
  mutable sending : Event.t list; (* reversed send buffer of current event *)
  fresh_uid : unit -> int;
  stats : stats;
  c_rollbacks : Lvm_obs.Counter.counter;
  c_committed : Lvm_obs.Counter.counter;
}

let local_of t obj =
  assert (obj mod t.n_schedulers = t.id);
  obj / t.n_schedulers

let obj_off t obj = local_of t obj * t.app.object_words * Addr.word_size

let create ?hw ?kernel ?(cpu = 0) ~id ~n_schedulers ~strategy ~app ~fresh_uid
    () =
  if n_schedulers <= 0 then invalid_arg "Scheduler.create: n_schedulers";
  if strategy = State_saving.Page_protect then
    invalid_arg
      "Scheduler.create: page-protect checkpointing has no per-event \
       rollback; use it with Synthetic only";
  let k =
    match kernel with
    | Some k ->
      if cpu < 0 || cpu >= Kernel.cpus k then
        invalid_arg "Scheduler.create: cpu out of range for shared kernel";
      (* charge this scheduler's setup (segment init, prefaults) to its
         own processor *)
      Kernel.set_cpu k cpu;
      k
    | None -> Kernel.create ?hw ~frames:8192 ()
  in
  let space = Kernel.create_space k in
  let n_local =
    (app.n_objects / n_schedulers)
    + if id < app.n_objects mod n_schedulers then 1 else 0
  in
  let state_bytes = n_local * app.object_words * Addr.word_size in
  let seg_size = state_bytes + Addr.word_size in
  let working = Kernel.create_segment k ~size:seg_size in
  let checkpoint = Kernel.create_segment k ~size:seg_size in
  (* initialize the checkpoint image *)
  for local = 0 to n_local - 1 do
    let obj = (local * n_schedulers) + id in
    for word = 0 to app.object_words - 1 do
      Kernel.seg_write_raw k checkpoint
        ~off:(((local * app.object_words) + word) * Addr.word_size)
        ~size:4
        (app.init_word ~obj ~word land 0xFFFFFFFF)
    done
  done;
  Kernel.declare_source k ~dst:working ~src:checkpoint ~offset:0;
  let region = Kernel.create_region k working in
  let ls =
    match strategy with
    | State_saving.Lvm_based ->
      let ls = Kernel.create_log_segment k ~size:(64 * Addr.page_size) in
      Kernel.set_region_log k region (Some ls);
      Some ls
    | State_saving.Copy_based | State_saving.Page_protect
    | State_saving.No_saving -> None
  in
  let base = Kernel.bind k space region in
  let save_seg, save_bytes =
    match strategy with
    | State_saving.Copy_based ->
      let bytes =
        Addr.align_up
          (max (256 * app.object_words * Addr.word_size) (64 * Addr.page_size))
          ~alignment:Addr.page_size
      in
      (Some (Kernel.create_segment k ~size:bytes), bytes)
    | State_saving.Lvm_based | State_saving.Page_protect
    | State_saving.No_saving -> (None, 0)
  in
  {
    id;
    n_schedulers;
    strategy;
    app;
    k;
    cpu;
    space;
    working;
    checkpoint;
    region;
    base;
    ls;
    save_seg;
    save_slots = save_bytes / (max 1 (app.object_words * Addr.word_size));
    save_free = [];
    save_next = 0;
    lvt_cell_off = state_bytes;
    n_local;
    lvt = 0;
    checkpoint_time = 0;
    queue = Event_queue.empty;
    processed = [];
    outbox = [];
    anti_pending = [];
    sending = [];
    fresh_uid;
    stats =
      {
        events_processed = 0;
        events_committed = 0;
        rollbacks = 0;
        anti_messages_sent = 0;
        annihilations = 0;
        stragglers = 0;
      };
    c_rollbacks = Lvm_obs.Ctx.counter (Kernel.obs k) "sim.rollbacks";
    c_committed = Lvm_obs.Ctx.counter (Kernel.obs k) "sim.events_committed";
  }

let id t = t.id
let kernel t = t.k

(* On a shared multi-CPU kernel, every entry point that does kernel work
   first switches the machine to this scheduler's processor; with a
   dedicated kernel ([cpu] = 0) this is a no-op. *)
let pin t = Kernel.set_cpu t.k t.cpu

let time t = Kernel.cpu_time t.k ~cpu:t.cpu
let stats t = t.stats
let owns t obj = obj >= 0 && obj < t.app.n_objects && obj mod t.n_schedulers = t.id
let queue_empty t = Event_queue.is_empty t.queue
let min_pending_time t = Event_queue.min_time t.queue
let enqueue t ev = t.queue <- Event_queue.add t.queue ev

(* {1 State restoration} *)

(* Roll forward up to, not including, the first LVT marker stamped at or
   after [target]. *)
let restore_lvm t ~target =
  Lvm.Checkpoint.rollback t.k ~space:t.space ~working:t.working
    ~working_region:t.region ~base:t.base ~log:(Option.get t.ls)
    ~upto:(fun off value -> off <> t.lvt_cell_off || value < target)

let free_save_slot t p =
  if t.strategy = State_saving.Copy_based then
    t.save_free <- p.save_off :: t.save_free

let restore_copy t p =
  let seg = Option.get t.save_seg in
  let len = t.app.object_words * Addr.word_size in
  let src = Kernel.paddr_of t.k seg ~off:(p.save_off * len) in
  let dst = Kernel.paddr_of t.k t.working ~off:(obj_off t p.event.Event.dst) in
  Machine.bcopy (Kernel.machine t.k) ~src ~dst ~len;
  free_save_slot t p

(* {1 Rollback} *)

let rollback t ~target =
  t.stats.rollbacks <- t.stats.rollbacks + 1;
  Lvm_obs.Counter.incr t.c_rollbacks;
  let undone, kept =
    List.partition (fun p -> p.event.Event.time >= target) t.processed
  in
  Lvm_obs.Ctx.event (Kernel.obs t.k) ~at:(Kernel.time t.k)
    (Lvm_obs.Event.Rollback
       { scheduler = t.id; target; undone = List.length undone });
  t.processed <- kept;
  (match t.strategy with
  | State_saving.Lvm_based -> restore_lvm t ~target
  | State_saving.Copy_based -> List.iter (restore_copy t) undone
  | State_saving.No_saving ->
    invalid_arg "Scheduler: rollback without state saving (conservative \
                 schedulers must never receive stragglers)"
  | State_saving.Page_protect -> assert false);
  (* re-enqueue the undone input events *)
  List.iter (fun p -> t.queue <- Event_queue.add t.queue p.event) undone;
  (* cancel their outputs *)
  let self_antis = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun (ev : Event.t) ->
          t.stats.anti_messages_sent <- t.stats.anti_messages_sent + 1;
          let dst_sched = ev.Event.dst mod t.n_schedulers in
          if dst_sched = t.id then self_antis := ev :: !self_antis
          else t.outbox <- (dst_sched, Event.anti ev) :: t.outbox)
        p.sent)
    undone;
  List.iter
    (fun (ev : Event.t) ->
      match Event_queue.remove_uid t.queue ~uid:ev.Event.uid with
      | Some (_, q) ->
        t.queue <- q;
        t.stats.annihilations <- t.stats.annihilations + 1
      | None ->
        (* A self-destined event is either pending or was undone and
           re-enqueued above; it must be present. *)
        assert false)
    !self_antis;
  t.lvt <-
    (match kept with
    | p :: _ -> p.event.Event.time
    | [] -> t.checkpoint_time)

(* {1 Receiving} *)

let receive t msg =
  pin t;
  let ev = msg.Event.event in
  if not (owns t ev.Event.dst) then
    invalid_arg "Scheduler.receive: object not owned by this scheduler";
  match msg.Event.sign with
  | Event.Positive ->
    (* A tie in virtual time also rolls back: committed order must follow
       the deterministic event order even among equal-time events, or the
       optimistic run could diverge from the sequential one. *)
    if ev.Event.time <= t.lvt then begin
      t.stats.stragglers <- t.stats.stragglers + 1;
      rollback t ~target:ev.Event.time
    end;
    if List.exists (fun (a : Event.t) -> a.Event.uid = ev.Event.uid)
        t.anti_pending
    then begin
      t.anti_pending <-
        List.filter (fun (a : Event.t) -> a.Event.uid <> ev.Event.uid)
          t.anti_pending;
      t.stats.annihilations <- t.stats.annihilations + 1
    end
    else t.queue <- Event_queue.add t.queue ev
  | Event.Negative -> (
    match Event_queue.remove_uid t.queue ~uid:ev.Event.uid with
    | Some (_, q) ->
      t.queue <- q;
      t.stats.annihilations <- t.stats.annihilations + 1
    | None ->
      if
        List.exists
          (fun p -> p.event.Event.uid = ev.Event.uid)
          t.processed
      then begin
        (* the victim was optimistically processed: roll back past it *)
        rollback t ~target:ev.Event.time;
        match Event_queue.remove_uid t.queue ~uid:ev.Event.uid with
        | Some (_, q) ->
          t.queue <- q;
          t.stats.annihilations <- t.stats.annihilations + 1
        | None -> assert false
      end
      else t.anti_pending <- ev :: t.anti_pending)

(* {1 Event processing} *)

let ensure_log_capacity t =
  match t.ls with
  | None -> ()
  | Some ls ->
    let log = Lvm_log.of_segment t.k ls in
    if Lvm_log.room log < 2 * Addr.page_size then
      Lvm_log.extend log ~pages:16

(* Save slots are allocated from a free list so a slot is never reused
   while its entry is still live (a plain ring would wrap into live saves
   once rollbacks waste positions). *)
let alloc_save_slot t =
  match t.save_free with
  | slot :: rest ->
    t.save_free <- rest;
    slot
  | [] ->
    if t.save_next >= t.save_slots then
      invalid_arg "Scheduler: save area exhausted";
    let slot = t.save_next in
    t.save_next <- slot + 1;
    slot

let save_object_copy t obj =
  let seg = Option.get t.save_seg in
  let len = t.app.object_words * Addr.word_size in
  let slot = alloc_save_slot t in
  let src = Kernel.paddr_of t.k t.working ~off:(obj_off t obj) in
  let dst = Kernel.paddr_of t.k seg ~off:(slot * len) in
  Machine.bcopy (Kernel.machine t.k) ~src ~dst ~len;
  slot

let make_ctx t (ev : Event.t) =
  let base_off = obj_off t ev.Event.dst in
  {
    self = ev.Event.dst;
    now = ev.Event.time;
    read =
      (fun word ->
        assert (word >= 0 && word < t.app.object_words);
        Kernel.read_word t.k t.space
          (t.base + base_off + (word * Addr.word_size)));
    write =
      (fun word v ->
        assert (word >= 0 && word < t.app.object_words);
        Kernel.write_word t.k t.space
          (t.base + base_off + (word * Addr.word_size))
          v);
    send =
      (fun ~dst ~delay ~payload ->
        if delay <= 0 then invalid_arg "Scheduler: send delay must be positive";
        if dst < 0 || dst >= t.app.n_objects then
          invalid_arg "Scheduler: send to unknown object";
        let out =
          {
            Event.time = ev.Event.time + delay;
            dst;
            payload;
            src = ev.Event.dst;
            send_time = ev.Event.time;
            uid = t.fresh_uid ();
          }
        in
        t.sending <- out :: t.sending;
        let dst_sched = dst mod t.n_schedulers in
        if dst_sched = t.id then t.queue <- Event_queue.add t.queue out
        else t.outbox <- (dst_sched, Event.positive out) :: t.outbox);
    compute = (fun c -> Kernel.compute t.k c);
  }

let step t ~horizon =
  pin t;
  match Event_queue.min t.queue with
  | None -> false
  | Some ev when ev.Event.time > horizon -> false
  | Some ev ->
    t.queue <- Event_queue.remove_min t.queue;
    let save_off =
      match t.strategy with
      | State_saving.Copy_based -> save_object_copy t ev.Event.dst
      | State_saving.Lvm_based ->
        ensure_log_capacity t;
        (* the LVT marker write (footnote 2) *)
        Kernel.write_word t.k t.space (t.base + t.lvt_cell_off)
          ev.Event.time;
        0
      | State_saving.Page_protect | State_saving.No_saving -> 0
    in
    t.sending <- [];
    t.app.handle (make_ctx t ev) ~payload:ev.Event.payload;
    t.processed <-
      { event = ev; sent = List.rev t.sending; save_off } :: t.processed;
    t.sending <- [];
    t.lvt <- ev.Event.time;
    t.stats.events_processed <- t.stats.events_processed + 1;
    true

let drain_outbox t =
  let out = List.rev t.outbox in
  t.outbox <- [];
  out

(* {1 Fossil collection / CULT} *)

(* CULT is deferred until the log has grown past this, standing in for
   the paper's asynchronous / only-when-not-the-bottleneck CULT policy
   (Section 2.4): committing history every GVT round would waste the
   processor on checkpoint maintenance. *)
let cult_threshold_bytes = 8 * Addr.page_size

let fossil_collect t ~gvt =
  pin t;
  if gvt > t.checkpoint_time then begin
    let committed, live =
      List.partition (fun p -> p.event.Event.time < gvt) t.processed
    in
    t.stats.events_committed <-
      t.stats.events_committed + List.length committed;
    Lvm_obs.Counter.add t.c_committed (List.length committed);
    Lvm_obs.Ctx.event (Kernel.obs t.k) ~at:(Kernel.time t.k)
      (Lvm_obs.Event.Commit
         { scheduler = t.id; gvt; events = List.length committed });
    List.iter (free_save_slot t) committed;
    t.processed <- live;
    (match t.strategy with
    | State_saving.Lvm_based ->
      let ls = Option.get t.ls in
      Kernel.sync_log t.k ls;
      if Segment.write_pos ls >= cult_threshold_bytes then begin
        ignore
          (Lvm.Checkpoint.cult t.k ~working:t.working
             ~checkpoint:t.checkpoint ~log:ls
             ~upto:(fun off value -> off <> t.lvt_cell_off || value < gvt));
        (* the checkpoint segment now reflects every update below gvt *)
        t.checkpoint_time <- gvt
      end
    | State_saving.Copy_based | State_saving.Page_protect
    | State_saving.No_saving ->
      t.checkpoint_time <- gvt);
    if t.lvt < t.checkpoint_time then t.lvt <- t.checkpoint_time
  end

let read_state t ~obj ~word =
  pin t;
  if not (owns t obj) then invalid_arg "Scheduler.read_state: not owned";
  Kernel.seg_read_raw t.k t.working
    ~off:(obj_off t obj + (word * Addr.word_size))
    ~size:4
