(* A frame is backed by its own 4 KiB the first time it is written; until
   then it holds [untouched] (the shared empty buffer) and reads as zero.
   The store itself covers only the frames up to the highest one written
   so far (frames are handed out from 0 upwards), so a large memory that
   is mostly unused costs no table the size of memory. *)
let untouched = Bytes.empty

type t = {
  mutable store : Bytes.t array; (* frame number -> its bytes, or [untouched] *)
  frames : int;
  mutable free : int list; (* freed frames, most recently freed first *)
  mutable next_fresh : int; (* frames [next_fresh, frames) never allocated *)
  mutable free_count : int;
}

exception Out_of_frames

let create ~frames =
  if frames <= 0 then invalid_arg "Physmem.create: frames must be positive";
  { store = [||]; frames; free = []; next_fresh = 0;
    free_count = frames }

let frames t = t.frames
let bytes t = t.frames * Addr.page_size
let frames_free t = t.free_count

let frame t fn = if fn < Array.length t.store then t.store.(fn) else untouched

let zero_frame t fn =
  let b = frame t fn in
  if b != untouched then Bytes.fill b 0 Addr.page_size '\000'

(* The free list is the freed frames (a stack) followed by the fresh
   frames in ascending order: the order a flat list initialised to
   [0; 1; ...] and pushed on free would hand them out. *)
let alloc_frame t =
  let fn =
    match t.free with
    | fn :: rest ->
      t.free <- rest;
      fn
    | [] ->
      if t.next_fresh >= t.frames then raise Out_of_frames;
      let fn = t.next_fresh in
      t.next_fresh <- fn + 1;
      fn
  in
  t.free_count <- t.free_count - 1;
  zero_frame t fn;
  fn

let free_frame t fn =
  if fn < 0 || fn >= t.frames then invalid_arg "Physmem.free_frame";
  t.free <- fn :: t.free;
  t.free_count <- t.free_count + 1

let check t paddr len =
  if paddr < 0 || paddr + len > bytes t then
    invalid_arg
      (Printf.sprintf "Physmem: address 0x%x+%d out of range" paddr len)

let touch t fn =
  let b = frame t fn in
  if b != untouched then b
  else begin
    let n = Array.length t.store in
    if fn >= n then begin
      let store = Array.make (min t.frames (max (fn + 1) (2 * n))) untouched in
      Array.blit t.store 0 store 0 n;
      t.store <- store
    end;
    let b = Bytes.make Addr.page_size '\000' in
    t.store.(fn) <- b;
    b
  end

(* An access of [len] bytes at [paddr] lies in one frame unless its page
   offset is within [len - 1] bytes of the frame's end. *)
let in_one_frame paddr len = Addr.page_offset paddr <= Addr.page_size - len

(* Byte-wise little-endian fallback for accesses that straddle frames. *)
let get_le t paddr len =
  let v = ref 0 in
  for i = len - 1 downto 0 do
    let a = paddr + i in
    let b = frame t (Addr.page_number a) in
    let byte = if b == untouched then 0 else Bytes.get_uint8 b (Addr.page_offset a) in
    v := (!v lsl 8) lor byte
  done;
  !v

let set_le t paddr len v =
  for i = 0 to len - 1 do
    let a = paddr + i in
    Bytes.set_uint8 (touch t (Addr.page_number a)) (Addr.page_offset a)
      ((v lsr (8 * i)) land 0xFF)
  done

(* [size] is 1, 2 or 4. *)
let get t paddr size =
  check t paddr size;
  if not (in_one_frame paddr size) then get_le t paddr size
  else
    let b = frame t (Addr.page_number paddr) and off = Addr.page_offset paddr in
    if b == untouched then 0
    else
      match size with
      | 4 -> Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
      | 2 -> Bytes.get_uint16_le b off
      | _ -> Bytes.get_uint8 b off

let set t paddr size v =
  check t paddr size;
  if not (in_one_frame paddr size) then set_le t paddr size v
  else
    let b = touch t (Addr.page_number paddr) and off = Addr.page_offset paddr in
    match size with
    | 4 -> Bytes.set_int32_le b off (Int32.of_int (v land 0xFFFFFFFF))
    | 2 -> Bytes.set_uint16_le b off (v land 0xFFFF)
    | _ -> Bytes.set_uint8 b off (v land 0xFF)

let read_word t paddr = get t paddr 4

let read_word_raw t paddr =
  let b = frame t (Addr.page_number paddr) in
  if b == untouched then 0
  else
    Int32.to_int (Bytes.get_int32_le b (Addr.page_offset paddr))
    land 0xFFFFFFFF

let write_word t paddr v = set t paddr 4 v
let read_byte t paddr = get t paddr 1
let write_byte t paddr v = set t paddr 1 v
let read_half t paddr = get t paddr 2
let write_half t paddr v = set t paddr 2 v

let read_sized t paddr ~size =
  match size with
  | 1 | 2 | 4 -> get t paddr size
  | _ -> invalid_arg "Physmem.read_sized: size must be 1, 2 or 4"

let write_sized t paddr ~size v =
  match size with
  | 1 | 2 | 4 -> set t paddr size v
  | _ -> invalid_arg "Physmem.write_sized: size must be 1, 2 or 4"

(* Walk [paddr, paddr + len) one frame-bounded chunk at a time:
   [f ~fn ~off ~pos ~len] covers frame [fn] from page offset [off], [pos]
   bytes into the range. *)
let iter_chunks paddr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = paddr + !pos in
    let off = Addr.page_offset a in
    let n = min (Addr.page_size - off) (len - !pos) in
    f ~fn:(Addr.page_number a) ~off ~pos:!pos ~len:n;
    pos := !pos + n
  done

let copy_out t ~fn ~off buf ~pos ~len =
  let b = frame t fn in
  if b == untouched then Bytes.fill buf pos len '\000'
  else Bytes.blit b off buf pos len

let blit_to_bytes t ~src buf ~pos ~len =
  check t src len;
  if len > 0 && in_one_frame src len then
    copy_out t ~fn:(Addr.page_number src) ~off:(Addr.page_offset src) buf ~pos
      ~len
  else
    iter_chunks src len (fun ~fn ~off ~pos:p ~len ->
        copy_out t ~fn ~off buf ~pos:(pos + p) ~len)

let blit_of_bytes t buf ~pos ~dst ~len =
  check t dst len;
  if len > 0 && in_one_frame dst len then
    Bytes.blit buf pos (touch t (Addr.page_number dst)) (Addr.page_offset dst) len
  else
    iter_chunks dst len (fun ~fn ~off ~pos:p ~len ->
        Bytes.blit buf (pos + p) (touch t fn) off len)

let blit t ~src ~dst ~len =
  check t src len;
  check t dst len;
  if len = 0 then ()
  else if in_one_frame src len && in_one_frame dst len then begin
    (* the common case, a cache line: one [Bytes.blit] (memmove) *)
    let s = frame t (Addr.page_number src) in
    let doff = Addr.page_offset dst in
    if s != untouched then
      Bytes.blit s (Addr.page_offset src) (touch t (Addr.page_number dst)) doff len
    else
      let d = frame t (Addr.page_number dst) in
      if d != untouched then Bytes.fill d doff len '\000'
  end
  else begin
    (* through a scratch buffer, so overlapping ranges copy like memmove *)
    let tmp = Bytes.create len in
    blit_to_bytes t ~src tmp ~pos:0 ~len;
    blit_of_bytes t tmp ~pos:0 ~dst ~len
  end
