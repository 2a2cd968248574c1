open Lvm_machine

type pte = {
  mutable frame : int;
  mutable write_through : bool;
  mutable logged : bool;
  mutable protected_ : bool;
  mutable dirty : bool;
  region : Region.t;
  seg_page : int;
}

type t = {
  id : int;
  table : pte Int_table.t; (* keyed by virtual page number *)
  mutable regions : (int * Region.t) list;
  mutable next_base : int;
}

(* Virtual layout: user bindings are allocated upward from 256 MB with a
   one-page guard gap between regions. *)
let first_base = 0x1000_0000

let make ~id =
  { id; table = Int_table.create 256; regions = []; next_base = first_base }

let id t = t.id
let lookup t ~vpage = Int_table.find_opt t.table vpage
let install t ~vpage pte = Int_table.replace t.table vpage pte
let remove t ~vpage = Int_table.remove t.table vpage
let regions t = t.regions

let find_region t ~vaddr =
  List.find_opt
    (fun (base, r) -> vaddr >= base && vaddr < base + Region.size r)
    t.regions

let overlaps t ~base ~size =
  List.exists
    (fun (b, r) -> base < b + Region.size r && b < base + size)
    t.regions

let bind t region ~vaddr =
  if Region.binding region <> None then
    Error.raise_
      (Error.Invalid
         { op = "Address_space.bind"; reason = "region is already bound" });
  let size = Region.size region in
  let base =
    match vaddr with
    | Some v ->
      if not (Addr.is_page_aligned v) then
        Error.raise_
          (Error.Invalid
             { op = "Address_space.bind";
               reason = "address must be page-aligned" });
      if overlaps t ~base:v ~size then
        Error.raise_
          (Error.Invalid
             { op = "Address_space.bind"; reason = "overlapping binding" });
      v
    | None ->
      let v = t.next_base in
      t.next_base <- v + size + Addr.page_size;
      v
  in
  if base >= t.next_base then t.next_base <- base + size + Addr.page_size;
  t.regions <-
    List.sort (fun (a, _) (b, _) -> compare a b) ((base, region) :: t.regions);
  Region.set_binding region (Some (t.id, base));
  base

let unbind t region =
  match Region.binding region with
  | None -> ()
  | Some (sid, base) ->
    if sid <> t.id then
      Error.raise_
        (Error.Invalid
           { op = "Address_space.unbind";
             reason = "region bound to another space" });
    for vpage = Addr.page_number base
      to Addr.page_number (base + Region.size region - 1) do
      Int_table.remove t.table vpage
    done;
    t.regions <- List.filter (fun (_, r) -> Region.id r <> Region.id region)
        t.regions;
    Region.set_binding region None
