type t = {
  name : string;
  bounds : int array; (* strictly increasing upper bounds *)
  counts : int array; (* length bounds + 1; last bucket is overflow *)
  pow2 : bool; (* bounds are a prefix of 0, 1, 2, 4, 8, ... *)
  mutable n : int;
  mutable sum : int;
  mutable max_seen : int;
}

let create ~name ~bounds =
  if Array.length bounds = 0 then
    invalid_arg "Histogram.create: need at least one bound";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Histogram.create: bounds must be strictly increasing")
    bounds;
  let rec pow2_from i =
    i = Array.length bounds
    || bounds.(i) = (if i = 0 then 0 else 1 lsl (i - 1)) && pow2_from (i + 1)
  in
  {
    name;
    bounds = Array.copy bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    pow2 = pow2_from 0;
    n = 0;
    sum = 0;
    max_seen = min_int;
  }

(* Powers of two 1, 2, 4, ... 2^max_exp, with a leading 0 bucket. *)
let pow2_bounds ~max_exp =
  if max_exp < 0 || max_exp > 30 then
    invalid_arg "Histogram.pow2_bounds: max_exp out of range";
  Array.init (max_exp + 2) (fun i -> if i = 0 then 0 else 1 lsl (i - 1))

(* The first bucket whose bound is >= [v], by binary search over the
   sorted bounds; allocation-free, as it runs on every bus access. *)
let bucket_of t v =
  let lo = ref 0 and hi = ref (Array.length t.bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if v <= t.bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

(* For [0 <= v < small], the bucket of [v] under [pow2_bounds ~max_exp:30];
   one table for every histogram, built once. Under a shorter prefix of
   those bounds the bucket is the smaller of that and the overflow
   index. *)
let small = 4096

let small_buckets =
  let full = create ~name:"" ~bounds:(pow2_bounds ~max_exp:30) in
  Bytes.init small (fun v -> Char.chr (bucket_of full v))

let observe t v =
  let b =
    if t.pow2 && v >= 0 && v < small then
      Int.min (Char.code (Bytes.unsafe_get small_buckets v)) (Array.length t.bounds)
    else bucket_of t v
  in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v > t.max_seen then t.max_seen <- v

let name t = t.name
let bounds t = Array.copy t.bounds
let counts t = Array.copy t.counts
let count t = t.n
let sum t = t.sum
let max_seen t = if t.n = 0 then 0 else t.max_seen
let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n

let buckets t =
  Array.to_list
    (Array.mapi
       (fun i c ->
         let le = if i < Array.length t.bounds then Some t.bounds.(i) else None
         in
         (le, c))
       t.counts)

(* Merge [src] into a fresh copy of [dst]; bounds must agree. *)
let merge a b =
  if a.name <> b.name || a.bounds <> b.bounds then
    invalid_arg "Histogram.merge: incompatible histograms";
  let m = create ~name:a.name ~bounds:a.bounds in
  Array.iteri (fun i c -> m.counts.(i) <- c + b.counts.(i)) a.counts;
  m.n <- a.n + b.n;
  m.sum <- a.sum + b.sum;
  m.max_seen <- max a.max_seen b.max_seen;
  m

let mergeable a b = a.name = b.name && a.bounds = b.bounds

let pp ppf t =
  Format.fprintf ppf "@[<v>%s: n=%d sum=%d max=%d" t.name t.n t.sum
    (max_seen t);
  List.iter
    (fun (le, c) ->
      if c > 0 then
        match le with
        | Some le -> Format.fprintf ppf "@   <= %-6d %d" le c
        | None -> Format.fprintf ppf "@   >  %-6d %d" t.bounds.(Array.length t.bounds - 1) c)
    (buckets t);
  Format.fprintf ppf "@]"
