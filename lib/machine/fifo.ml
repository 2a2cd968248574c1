type t = {
  buf : int array; (* ring of drain times *)
  capacity : int;
  mutable head : int; (* index of oldest entry *)
  mutable len : int;
  mutable last_drain : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Fifo.create: capacity must be positive";
  { buf = Array.make capacity 0; capacity; head = 0; len = 0; last_drain = 0 }

let capacity t = t.capacity

(* [i] wrapped into the ring, for [0 <= i < 2 * capacity]: a compare,
   not a division, on the per-write path. *)
let wrap t i = if i >= t.capacity then i - t.capacity else i

let drain_until t ~now =
  while t.len > 0 && t.buf.(t.head) <= now do
    t.head <- wrap t (t.head + 1);
    t.len <- t.len - 1
  done

let occupancy t ~now =
  drain_until t ~now;
  t.len

let push t ~drain_time =
  if t.len >= t.capacity then invalid_arg "Fifo.push: overflow";
  t.buf.(wrap t (t.head + t.len)) <- drain_time;
  t.len <- t.len + 1;
  if drain_time > t.last_drain then t.last_drain <- drain_time

let last_drain_time t = t.last_drain
let head_drain_time t = if t.len = 0 then None else Some t.buf.(t.head)

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.last_drain <- 0
