open Lvm_machine
open Lvm_vm

exception Arena_full

type side = {
  region : Region.t;
  base : int;
  bytes : int;
  mutable next : int; (* bump pointer, bytes from base *)
}

type t = {
  logged : side;
  unlogged : side;
  ls : Segment.t;
}

let make_side k space ~bytes ~log =
  let seg = Kernel.create_segment k ~size:bytes in
  let region = Kernel.create_region k seg in
  (match log with
  | Some ls -> Kernel.set_region_log k region (Some ls)
  | None -> ());
  let base = Kernel.bind k space region in
  { region; base; bytes = Segment.size seg; next = 0 }

let create ?(logged_bytes = 16 * Addr.page_size) k space =
  let ls = Kernel.create_log_segment k ~size:(16 * Addr.page_size) in
  {
    logged = make_side k space ~bytes:logged_bytes ~log:(Some ls);
    unlogged = make_side k space ~bytes:(16 * Addr.page_size) ~log:None;
    ls;
  }

let log t = t.ls
let logged_region t = t.logged.region
let side t ~logged = if logged then t.logged else t.unlogged

let alloc t ~logged ~words =
  if words <= 0 then invalid_arg "Arena.alloc: words must be positive";
  let s = side t ~logged in
  let bytes = words * Addr.word_size in
  if s.next + bytes > s.bytes then raise Arena_full;
  let addr = s.base + s.next in
  s.next <- s.next + bytes;
  addr

let allocated_words t ~logged = (side t ~logged).next / Addr.word_size
let reset t ~logged = (side t ~logged).next <- 0

let is_logged_addr t addr =
  addr >= t.logged.base && addr < t.logged.base + t.logged.bytes
