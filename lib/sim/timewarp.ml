type result = {
  gvt : int;
  elapsed_cycles : int;
  total_events_processed : int;
  total_events_committed : int;
  total_rollbacks : int;
  total_anti_messages : int;
  total_stragglers : int;
}

type t = {
  scheds : Scheduler.t array;
  app : Scheduler.app;
  batch : int;
  next_uid : int ref;
  mutable gvt : int;
}

let create ?hw ?(batch = 8) ?(cpus = 1) ~n_schedulers ~strategy ~app () =
  if batch <= 0 then invalid_arg "Timewarp.create: batch must be positive";
  if cpus <= 0 then invalid_arg "Timewarp.create: cpus must be positive";
  let next_uid = ref 0 in
  let fresh_uid () =
    let u = !next_uid in
    incr next_uid;
    u
  in
  let scheds =
    if cpus = 1 then
      (* one kernel per scheduler: the original round-based emulation *)
      Array.init n_schedulers (fun id ->
          Scheduler.create ?hw ~id ~n_schedulers ~strategy ~app ~fresh_uid ())
    else begin
      (* the ParaDiGM configuration: one shared machine, schedulers
         pinned round-robin to its CPUs, contending for one bus and one
         logger *)
      let kernel =
        Lvm_vm.Kernel.create ?hw ~frames:(8192 * n_schedulers) ~cpus ()
      in
      Array.init n_schedulers (fun id ->
          Scheduler.create ?hw ~kernel ~cpu:(id mod cpus) ~id ~n_schedulers
            ~strategy ~app ~fresh_uid ())
    end
  in
  { scheds; app; batch; next_uid; gvt = 0 }

let schedulers t = t.scheds
let sched_of t obj = t.scheds.(obj mod Array.length t.scheds)

let inject t ~time ~dst ~payload =
  if dst < 0 || dst >= t.app.n_objects then
    invalid_arg "Timewarp.inject: unknown object";
  let uid = !(t.next_uid) in
  incr t.next_uid;
  Scheduler.enqueue (sched_of t dst)
    { Event.time; dst; payload; src = -1; send_time = 0; uid }

(* Deliver every outbound message; returns how many were moved. Repeats
   until quiescent because a delivery can trigger a rollback that sends
   anti-messages. *)
let rec deliver t =
  let moved = ref 0 in
  Array.iter
    (fun s ->
      List.iter
        (fun (dst, msg) ->
          incr moved;
          Scheduler.receive t.scheds.(dst) msg)
        (Scheduler.drain_outbox s))
    t.scheds;
  if !moved > 0 then !moved + deliver t else 0

let compute_gvt t =
  Array.fold_left
    (fun acc s ->
      match Scheduler.min_pending_time s with
      | None -> acc
      | Some m -> Int.min acc m)
    max_int t.scheds

let run t ~end_time =
  let rec loop () =
    (* one optimistic round *)
    Array.iter
      (fun s ->
        let rec batch n =
          if n > 0 && Scheduler.step s ~horizon:(end_time - 1) then
            batch (n - 1)
        in
        batch t.batch)
      t.scheds;
    ignore (deliver t);
    let gvt = compute_gvt t in
    let gvt = Int.min gvt end_time in
    t.gvt <- gvt;
    Array.iter (fun s -> Scheduler.fossil_collect s ~gvt) t.scheds;
    if gvt < end_time then loop ()
  in
  loop ();
  let sum f = Array.fold_left (fun a s -> a + f (Scheduler.stats s)) 0 t.scheds
  in
  {
    gvt = t.gvt;
    elapsed_cycles =
      Array.fold_left (fun a s -> max a (Scheduler.time s)) 0 t.scheds;
    total_events_processed = sum (fun st -> st.Scheduler.events_processed);
    total_events_committed = sum (fun st -> st.Scheduler.events_committed);
    total_rollbacks = sum (fun st -> st.Scheduler.rollbacks);
    total_anti_messages = sum (fun st -> st.Scheduler.anti_messages_sent);
    total_stragglers = sum (fun st -> st.Scheduler.stragglers);
  }

let read_state t ~obj ~word = Scheduler.read_state (sched_of t obj) ~obj ~word

let state_vector t =
  Array.init
    (t.app.n_objects * t.app.object_words)
    (fun i ->
      let obj = i / t.app.object_words in
      let word = i mod t.app.object_words in
      read_state t ~obj ~word)
