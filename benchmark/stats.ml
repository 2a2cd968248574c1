(* Sample buffers, exact percentiles and a compact log-scale histogram.

   Percentiles use the nearest-rank rule on the sorted samples, so an
   integer sample set (simulated cycles) always yields one of its own
   values and repeats exactly for a repeated run. *)

(* A growable buffer of unboxed floats. *)
module Buf = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.create 1024; n = 0 }

  let add t v =
    if t.n = Float.Array.length t.a then begin
      let a = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    Float.Array.set t.a t.n v;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Float.Array.sub t.a 0 t.n
end

(* Nearest-rank percentile [p] (0 < p <= 100) of an unsorted sample set;
   0 when empty. *)
let percentile samples p =
  let n = Float.Array.length samples in
  if n = 0 then 0.
  else begin
    let s = Float.Array.copy samples in
    Float.Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    Float.Array.get s (max 0 (min (n - 1) (rank - 1)))
  end

let median l =
  percentile (Float.Array.of_list l) 50.

(* The highest percentile of [p99.99; p99.9; p99; p95; p90] that leaves
   at least [beyond] samples above its rank, else p50. *)
let tail_percentile ~n ~beyond =
  List.find_opt
    (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= float_of_int beyond)
    [ 99.99; 99.9; 99.; 95.; 90. ]
  |> Option.value ~default:50.

(* Log-scale histogram with 64 sub-buckets per power of two: under 1.6%
   relative resolution at constant memory, for the traced run's
   per-span durations (millions of samples on the TPC-A workload). *)
module Hist = struct
  let sub_bits = 6
  let sub = 1 lsl sub_bits

  type t = { counts : int array; mutable total : int }

  let create () = { counts = Array.make (64 * sub) 0; total = 0 }

  let rec msb x acc = if x <= 1 then acc else msb (x lsr 1) (acc + 1)

  (* Values below [2 * sub] get a bucket each; above, bucket [i] covers
     [lower_bound i, lower_bound (i + 1)). *)
  let index v =
    if v < sub then max 0 v
    else
      let e = msb v 0 in
      ((e - sub_bits + 1) * sub) + ((v lsr (e - sub_bits)) land (sub - 1))

  let lower_bound i =
    if i < sub then i
    else
      let e = (i / sub) + sub_bits - 1 in
      (1 lsl e) + ((i mod sub) lsl (e - sub_bits))

  let add t v =
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let percentile t p =
    if t.total = 0 then 0
    else begin
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int t.total)) in
      let rank = max 1 rank in
      let rec go i acc =
        let acc = acc + t.counts.(i) in
        if acc >= rank then lower_bound i else go (i + 1) acc
      in
      go 0 0
    end
end
