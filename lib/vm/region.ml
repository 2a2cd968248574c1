open Lvm_machine

type t = {
  id : int;
  segment : Segment.t;
  seg_offset : int;
  size : int;
  mutable log : Segment.t option;
  mutable logging_enabled : bool;
  mutable binding : (int * int) option;
  mutable write_protected : bool;
}

let make ~id ~segment ~seg_offset ~size =
  if not (Addr.is_page_aligned seg_offset) then
    Error.raise_
      (Error.Invalid
         { op = "Region.make"; reason = "segment offset must be page-aligned" });
  if size <= 0 then
    Error.raise_
      (Error.Out_of_range { op = "Region.make"; what = "size"; value = size });
  let size = Addr.align_up size ~alignment:Addr.page_size in
  if seg_offset + size > Segment.size segment then
    Error.raise_
      (Error.Invalid { op = "Region.make"; reason = "region exceeds segment" });
  { id; segment; seg_offset; size; log = None; logging_enabled = true;
    binding = None; write_protected = false }

let id t = t.id
let segment t = t.segment
let seg_offset t = t.seg_offset
let size t = t.size
let pages t = t.size / Addr.page_size
let log t = t.log
let set_log t l = t.log <- l
let set_logging_enabled t b = t.logging_enabled <- b
let is_logged t = t.log <> None && t.logging_enabled
let binding t = t.binding
let set_binding t b = t.binding <- b
let write_protected t = t.write_protected
let set_write_protected t b = t.write_protected <- b

let seg_page_of_vaddr t ~base ~vaddr =
  let off = vaddr - base in
  assert (off >= 0 && off < t.size);
  (t.seg_offset + off) / Addr.page_size
