type 'w t = {
  depth : int;
  parked : (int, 'w) Hashtbl.t; (* word address -> last write *)
  order : int Queue.t; (* first-touch order *)
}

type outcome = Parked | Absorbed | Bypass

let create ~depth = { depth; parked = Hashtbl.create 64; order = Queue.create () }

let pending t = Queue.length t.order

let drain t =
  let ws =
    List.rev
      (Queue.fold (fun acc addr -> Hashtbl.find t.parked addr :: acc) [] t.order)
  in
  Queue.clear t.order;
  Hashtbl.reset t.parked;
  ws

let write t ~addr ~size w ~flush =
  if size = Addr.word_size && addr land (Addr.word_size - 1) = 0 then begin
    let absorbed = Hashtbl.mem t.parked addr in
    if not absorbed then Queue.push addr t.order;
    Hashtbl.replace t.parked addr w;
    if pending t >= t.depth then flush (drain t);
    if absorbed then Absorbed else Parked
  end
  else begin
    if pending t > 0 then flush (drain t);
    Bypass
  end
