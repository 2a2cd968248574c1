module Config = struct
  type t = {
    min_delta : int;
    imbalance : float;
    merge_below : float;
  }

  let default = { min_delta = 32; imbalance = 1.6; merge_below = 1.15 }
end

let max_buckets = 8 (* buckets per move, at most *)
let queue_weight = 4.0 (* load contribution per queued transaction *)
let alpha = 0.5 (* EWMA weight of the newest load sample *)

type advice =
  | Split of { from_ : int; to_ : int; buckets : int list }
  | Merge of { from_ : int; to_ : int; buckets : int list }
  | Steady

type t = {
  st : Store.t;
  config : Config.t;
  load : float array;
  mutable prev : int array;
  gauges : Lvm_obs.Counter.counter array;
}

let create ?(config = Config.default) st =
  let shards = (Store.config st).Store.Config.shards in
  let ctx = Lvm_vm.Kernel.obs (Store.kernel st) in
  { st; config;
    load = Array.make shards 0.0;
    prev = Store.bucket_write_counts st;
    gauges =
      Array.init shards (fun s ->
          Lvm_obs.Ctx.counter ctx (Printf.sprintf "store.shard%d.load" s)) }

let load t s = t.load.(s)

(* Each advise round folds the bucket-write deltas since the previous
   round (plus the driver's queue depths) into per-shard load EWMAs,
   publishes them as gauges, and compares the hottest shard against the
   fleet average. *)
let advise ?queue_depths t =
  let cfg = Store.config t.st in
  let shards = cfg.Store.Config.shards in
  let counts = Store.bucket_write_counts t.st in
  let deltas =
    Array.mapi
      (fun b c ->
        (* A recovery resets the store's counters; clamping keeps a
           stale snapshot from producing negative load. *)
        max 0 (c - (if b < Array.length t.prev then t.prev.(b) else 0)))
      counts
  in
  t.prev <- counts;
  let route = Store.route_table t.st in
  let sample = Array.make shards 0.0 in
  Array.iteri
    (fun b d -> sample.(route.(b)) <- sample.(route.(b)) +. float_of_int d)
    deltas;
  (match queue_depths with
  | Some q ->
    Array.iteri
      (fun s d ->
        if s < shards then
          sample.(s) <- sample.(s) +. (queue_weight *. float_of_int d))
      q
  | None -> ());
  Array.iteri
    (fun s v ->
      t.load.(s) <-
        ((1.0 -. alpha) *. t.load.(s)) +. (alpha *. v);
      Lvm_obs.Counter.set t.gauges.(s) (int_of_float t.load.(s)))
    sample;
  if shards < 2 || Store.active_move t.st <> None then Steady
  else begin
    let total_delta = Array.fold_left ( + ) 0 deltas in
    let hot = ref 0 and cold = ref 0 in
    for s = 1 to shards - 1 do
      if t.load.(s) > t.load.(!hot) then hot := s;
      if t.load.(s) < t.load.(!cold) then cold := s
    done;
    let avg = Array.fold_left ( +. ) 0.0 t.load /. float_of_int shards in
    if
      total_delta >= t.config.min_delta
      && avg > 0.0
      && t.load.(!hot) >= t.config.imbalance *. avg
      && t.load.(!hot) > t.load.(!cold) +. 1.0
    then begin
      (* Peel the hot shard's hottest buckets off — never its last
         bucket. The move is sized in this round's write-delta units
         (the EWMAs mix in queue depths, a different scale): enough
         traffic that the hot shard would sit at the fleet average,
         but never more than would push the recipient over it —
         otherwise the hottest buckets travel as a group and the
         hotspot merely relocates, ping-ponging between shards. *)
      match Store.shard_buckets t.st !hot with
      | [] | [ _ ] -> Steady
      | owned ->
        let keep_at_least_one = List.length owned - 1 in
        let scored =
          List.sort
            (fun (d1, b1) (d2, b2) -> compare (d2, b1) (d1, b2))
            (List.map (fun b -> (deltas.(b), b)) owned)
        in
        let shard_delta s =
          let acc = ref 0.0 in
          Array.iteri
            (fun b d -> if route.(b) = s then acc := !acc +. float_of_int d)
            deltas;
          !acc
        in
        let avg_delta = float_of_int total_delta /. float_of_int shards in
        let target =
          Float.min
            (shard_delta !hot -. avg_delta)
            (avg_delta -. shard_delta !cold)
        in
        let rec pick acc cum n = function
          | [] -> List.rev acc
          | _ when n >= max_buckets || n >= keep_at_least_one
                   || cum >= target ->
            List.rev acc
          | (d, _) :: _ when d = 0 ->
            (* Sorted hottest-first: the rest carry no traffic, and
               moving them shifts no load. *)
            List.rev acc
          | (d, b) :: rest -> pick (b :: acc) (cum +. float_of_int d) (n + 1) rest
        in
        if target <= 0.0 then Steady
        else
          (match pick [] 0.0 0 scored with
          | [] -> Steady
          | picked -> Split { from_ = !hot; to_ = !cold; buckets = picked })
    end
    else if avg > 0.0 && t.load.(!hot) <= t.config.merge_below *. avg then begin
      (* Calm seas: undo stale splits by sending one displaced group of
         buckets back to its default owner, shrinking route entropy. *)
      let displaced = ref [] in
      Array.iteri
        (fun b s ->
          if s <> Store.default_owner t.st b then displaced := (s, b) :: !displaced)
        route;
      match List.rev !displaced with
      | [] -> Steady
      | (s, b) :: _ ->
        let home = Store.default_owner t.st b in
        let group =
          List.filter_map
            (fun (s', b') ->
              if s' = s && Store.default_owner t.st b' = home then Some b'
              else None)
            (List.rev !displaced)
        in
        Merge { from_ = s; to_ = home; buckets = group }
    end
    else Steady
  end
