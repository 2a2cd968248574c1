type result = {
  events_processed : int;
  steps : int;
  elapsed_cycles : int;
  busy_cycles : int;
}

type t = {
  scheds : Scheduler.t array;
  app : Scheduler.app;
  next_uid : int ref;
}

(* Charged to every processor at each synchronization step. *)
let barrier_cost = 800

let create ~n_schedulers ~app () =
  let next_uid = ref 0 in
  let fresh_uid () =
    let u = !next_uid in
    incr next_uid;
    u
  in
  let scheds =
    Array.init n_schedulers (fun id ->
        Scheduler.create ~id ~n_schedulers
          ~strategy:State_saving.No_saving ~app ~fresh_uid ())
  in
  { scheds; app; next_uid }

let sched_of t obj = t.scheds.(obj mod Array.length t.scheds)

let inject t ~time ~dst ~payload =
  if dst < 0 || dst >= t.app.n_objects then
    invalid_arg "Conservative.inject: unknown object";
  let uid = !(t.next_uid) in
  incr t.next_uid;
  Scheduler.enqueue (sched_of t dst)
    { Event.time; dst; payload; src = -1; send_time = 0; uid }

let deliver t =
  Array.iter
    (fun s ->
      List.iter
        (fun (dst, msg) -> Scheduler.receive t.scheds.(dst) msg)
        (Scheduler.drain_outbox s))
    t.scheds

let global_min t =
  Array.fold_left
    (fun acc s ->
      match Scheduler.min_pending_time s with
      | None -> acc
      | Some m -> min acc m)
    max_int t.scheds

let run t ~end_time =
  let steps = ref 0 in
  let busy = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    deliver t;
    let now = global_min t in
    if now >= end_time then continue_ := false
    else begin
      incr steps;
      (* every scheduler may safely process exactly the events at [now]:
         all future events are at least one delay unit later *)
      Array.iter
        (fun s ->
          let before = Scheduler.time s in
          let rec drain () =
            match Scheduler.min_pending_time s with
            | Some m when m = now ->
              ignore (Scheduler.step s ~horizon:now);
              drain ()
            | Some _ | None -> ()
          in
          drain ();
          busy := !busy + (Scheduler.time s - before))
        t.scheds;
      (* barrier: idle every processor up to the slowest one, then charge
         the synchronization itself (global-minimum exchange) *)
      let frontier =
        Array.fold_left (fun acc s -> max acc (Scheduler.time s)) 0 t.scheds
      in
      Array.iter
        (fun s ->
          let lag = frontier - Scheduler.time s in
          Lvm_vm.Kernel.compute (Scheduler.kernel s) (lag + barrier_cost))
        t.scheds
    end
  done;
  {
    events_processed =
      Array.fold_left
        (fun acc s -> acc + (Scheduler.stats s).Scheduler.events_processed)
        0 t.scheds;
    steps = !steps;
    elapsed_cycles =
      Array.fold_left (fun acc s -> max acc (Scheduler.time s)) 0 t.scheds;
    busy_cycles = !busy;
  }

let read_state t ~obj ~word = Scheduler.read_state (sched_of t obj) ~obj ~word

let state_vector t =
  Array.init
    (t.app.n_objects * t.app.object_words)
    (fun i ->
      let obj = i / t.app.object_words in
      let word = i mod t.app.object_words in
      read_state t ~obj ~word)
