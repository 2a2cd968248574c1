open Lvm_machine
open Lvm_vm

type protocol = Twin_diff | Log_based | Snooped

type release_stats = {
  words_sent : int;
  messages : int;
  release_cycles : int;
}

(* Wire model: per-message fixed overhead and per-word cost, charged to
   the producer. *)
let message_overhead = 400
let wire_per_word = 4

(* Twin/diff scan cost per word compared (load + compare). *)
let diff_scan_per_word = 3

type t = {
  k : Kernel.t;
  space : Address_space.t;
  protocol : protocol;
  seg : Segment.t; (* producer's shared segment *)
  region : Region.t;
  base : int;
  size : int;
  consumer : Segment.t; (* the remote replica *)
  twins : Segment.t; (* twin pages, one slot per segment page *)
  mutable twinned : int list; (* page indices twinned this section *)
  ls : Segment.t option;
}

let create k space ~size protocol =
  if size <= 0 || size mod Addr.word_size <> 0 then
    invalid_arg "Shared_segment.create: bad size";
  let seg = Kernel.create_segment k ~size in
  let region = Kernel.create_region k seg in
  let consumer = Kernel.create_segment k ~size in
  let twins = Kernel.create_segment k ~size in
  let ls =
    match protocol with
    | Log_based | Snooped ->
      let ls = Kernel.create_log_segment k ~size:(32 * Addr.page_size) in
      Kernel.set_region_log k region (Some ls);
      Some ls
    | Twin_diff -> None
  in
  let base = Kernel.bind k space region in
  let t =
    { k; space; protocol; seg; region; base; size; consumer; twins;
      twinned = []; ls }
  in
  (match protocol with
  | Snooped ->
    (* the consistency snoop: watch the logging bus traffic and mirror
       each update into the replica, off the producer's critical path *)
    let logger = Machine.logger (Kernel.machine k) in
    let previous = ref (fun ~paddr:_ ~vaddr:_ ~size:_ ~value:_ -> ()) in
    let observe ~paddr ~vaddr ~size ~value =
      !previous ~paddr ~vaddr ~size ~value;
      match Kernel.owner_of_frame k ~frame:(Addr.page_number paddr) with
      | Some (owner, page) when Segment.id owner = Segment.id t.seg ->
        let off = (page * Addr.page_size) + Addr.page_offset paddr in
        if off + size <= t.size then
          Kernel.seg_write_raw k t.consumer ~off ~size value
      | Some _ | None -> ()
    in
    Logger.set_snoop_observer logger (Some observe)
  | Twin_diff ->
    Kernel.set_protect_fault_handler k
      (Some
         (fun _sp r ~vaddr ->
           if Region.id r = Region.id region then begin
             (* first write this section: twin the page *)
             let page = (vaddr - t.base) / Addr.page_size in
             let src = Kernel.paddr_of t.k t.seg ~off:(page * Addr.page_size)
             in
             let dst =
               Kernel.paddr_of t.k t.twins ~off:(page * Addr.page_size)
             in
             Machine.bcopy (Kernel.machine t.k) ~src ~dst ~len:Addr.page_size;
             t.twinned <- page :: t.twinned
           end))
  | Log_based -> ());
  t

let protocol t = t.protocol

let acquire t =
  match t.protocol with
  | Twin_diff ->
    t.twinned <- [];
    Kernel.protect_region t.k t.region
  | Log_based | Snooped -> ()

let write_word t ~off v =
  if off < 0 || off + 4 > t.size then invalid_arg "Shared_segment.write_word";
  Kernel.write_word t.k t.space (t.base + off) v

let read_word t ~off =
  if off < 0 || off + 4 > t.size then invalid_arg "Shared_segment.read_word";
  Kernel.read_word t.k t.space (t.base + off)

(* Apply one word update to the consumer replica, charged as a remote
   cached write. *)
let apply_to_consumer t ~off ~size v =
  let paddr = Kernel.paddr_of t.k t.consumer ~off in
  Machine.write (Kernel.machine t.k) ~paddr ~size ~mode:Machine.Write_back
    ~logged:false v

let release_twin_diff t =
  let words_sent = ref 0 in
  let messages = ref 0 in
  List.iter
    (fun page ->
      incr messages;
      let page_off = page * Addr.page_size in
      Kernel.compute t.k (Addr.words_per_page * diff_scan_per_word);
      for w = 0 to Addr.words_per_page - 1 do
        let off = page_off + (w * Addr.word_size) in
        if off + 4 <= t.size then begin
          let current = Kernel.seg_read_raw t.k t.seg ~off ~size:4 in
          let twin = Kernel.seg_read_raw t.k t.twins ~off ~size:4 in
          if current <> twin then begin
            incr words_sent;
            apply_to_consumer t ~off ~size:4 current
          end
        end
      done)
    (List.rev t.twinned);
  Kernel.compute t.k
    ((!messages * message_overhead) + (!words_sent * wire_per_word));
  t.twinned <- [];
  (!words_sent, !messages)

let propagate_log t =
  let ls = Option.get t.ls in
  let words = ref 0 in
  let stop =
    Lvm.Checkpoint.replay t.k ~log:ls ~from:0 ~seg:t.seg
      ~f:(fun ~off ~paddr:_ ~size ~value ->
        incr words;
        apply_to_consumer t ~off ~size value;
        true)
  in
  Lvm_log.truncate (Lvm_log.of_segment t.k ls) ~keep_from:stop;
  Kernel.compute t.k (message_overhead + (!words * wire_per_word));
  (!words, 1)

(* In snooped mode the replica is already current; release just retires
   the consumed log records (no copying needed). *)
let retire_log t =
  let ls = Option.get t.ls in
  let log = Lvm_log.of_segment t.k ls in
  Lvm_log.truncate log ~keep_from:(Lvm_log.length log);
  (0, 0)

let stream t =
  let t0 = Kernel.time t.k in
  let words_sent, messages =
    match t.protocol with
    | Twin_diff -> (0, 0) (* differences are only known at release *)
    | Log_based -> propagate_log t
    | Snooped -> retire_log t
  in
  { words_sent; messages; release_cycles = Kernel.time t.k - t0 }

let release t =
  let t0 = Kernel.time t.k in
  let words_sent, messages =
    match t.protocol with
    | Twin_diff -> release_twin_diff t
    | Log_based -> propagate_log t
    | Snooped -> retire_log t
  in
  { words_sent; messages; release_cycles = Kernel.time t.k - t0 }

let consumer_word t ~off = Kernel.seg_read_raw t.k t.consumer ~off ~size:4

let replica_consistent t =
  let rec go off =
    if off + 4 > t.size then true
    else if
      Kernel.seg_read_raw t.k t.seg ~off ~size:4
      <> Kernel.seg_read_raw t.k t.consumer ~off ~size:4
    then false
    else go (off + 4)
  in
  go 0
