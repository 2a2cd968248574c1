(* Observability subsystem: the counter registry and snapshot deltas,
   bounded histograms, the cycle-stamped trace ring, sink round-trips,
   and agreement between registry snapshots and the hardware Perf
   record they subsume. *)

open Lvm_obs

let check_int = Alcotest.(check int)

(* {1 Counters and snapshots} *)

let test_counter_registry () =
  let r = Counter.create () in
  let a = Counter.counter r "a" in
  let b = Counter.counter r "b" in
  Counter.incr a;
  Counter.add a 4;
  Counter.set b 7;
  check_int "a" 5 (Counter.value a);
  check_int "b" 7 (Counter.value b);
  (* find-or-create returns the same counter *)
  Counter.incr (Counter.counter r "a");
  check_int "a again" 6 (Counter.value a);
  Alcotest.(check (list (pair string int)))
    "registration order" [ ("a", 6); ("b", 7) ] (Counter.to_alist r);
  Alcotest.check_raises "negative add"
    (Invalid_argument "Counter.add: negative increment") (fun () ->
      Counter.add a (-1));
  Counter.reset r;
  check_int "reset" 0 (Counter.value a);
  check_int "registrations kept" 2 (List.length (Counter.to_alist r))

let test_snapshot_delta () =
  let before = Snapshot.of_alist [ ("x", 3); ("y", 10) ] in
  let after = Snapshot.of_alist [ ("x", 5); ("y", 10); ("z", 2) ] in
  let d = Snapshot.delta ~before ~after in
  check_int "x" 2 (Snapshot.get d "x");
  check_int "y" 0 (Snapshot.get d "y");
  check_int "z (absent before)" 2 (Snapshot.get d "z");
  check_int "absent name is 0" 0 (Snapshot.get d "nope");
  let m = Snapshot.merge before after in
  check_int "merge sums" 8 (Snapshot.get m "x");
  check_int "merge union" 2 (Snapshot.get m "z");
  check_int "total" 17 (Snapshot.total after)

(* {1 Histograms} *)

let test_histogram () =
  let h = Histogram.create ~name:"h" ~bounds:(Histogram.pow2_bounds ~max_exp:4) in
  Alcotest.(check (array int))
    "pow2 bounds" [| 0; 1; 2; 4; 8; 16 |] (Histogram.bounds h);
  List.iter (Histogram.observe h) [ 0; 1; 3; 3; 9; 100 ];
  check_int "count" 6 (Histogram.count h);
  check_int "sum" 116 (Histogram.sum h);
  check_int "max" 100 (Histogram.max_seen h);
  (* 0 -> le:0; 1 -> le:1; 3,3 -> le:4; 9 -> le:16; 100 -> overflow *)
  Alcotest.(check (array int))
    "bucket counts" [| 1; 1; 0; 2; 0; 1; 1 |] (Histogram.counts h);
  (match List.rev (Histogram.buckets h) with
  | (None, n) :: _ -> check_int "overflow bucket" 1 n
  | _ -> Alcotest.fail "missing overflow bucket")

(* [observe] runs on every bus access and logger FIFO sample. *)
let test_histogram_observe_allocates_nothing () =
  let h =
    Histogram.create ~name:"h" ~bounds:(Histogram.pow2_bounds ~max_exp:12)
  in
  let before = Gc.minor_words () in
  for v = 0 to 9_999 do
    Histogram.observe h v
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 10000 observes" words)
    true (words < 100.)

let test_histogram_merge () =
  let bounds = Histogram.pow2_bounds ~max_exp:3 in
  let a = Histogram.create ~name:"h" ~bounds in
  let b = Histogram.create ~name:"h" ~bounds in
  let other = Histogram.create ~name:"other" ~bounds in
  Histogram.observe a 2;
  Histogram.observe b 5;
  Histogram.observe b 2;
  Alcotest.(check bool) "mergeable" true (Histogram.mergeable a b);
  Alcotest.(check bool) "name mismatch" false (Histogram.mergeable a other);
  let m = Histogram.merge a b in
  check_int "merged count" 3 (Histogram.count m);
  check_int "merged sum" 9 (Histogram.sum m);
  check_int "merged max" 5 (Histogram.max_seen m);
  (* merge leaves the inputs untouched *)
  check_int "a untouched" 1 (Histogram.count a)

(* {1 Trace ring} *)

let test_trace_ring () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.record t ~at:(i * 10)
      (Event.Page_fault { space = 0; vaddr = i })
  done;
  check_int "length bounded" 4 (Trace.length t);
  check_int "total" 6 (Trace.total t);
  check_int "dropped" 2 (Trace.dropped t);
  (match Trace.entries t with
  | { Trace.at; event = Event.Page_fault { vaddr; _ } } :: _ ->
    check_int "oldest surviving stamp" 30 at;
    check_int "oldest surviving vaddr" 3 vaddr
  | _ -> Alcotest.fail "unexpected trace shape");
  Trace.clear t;
  check_int "cleared" 0 (Trace.length t)

(* {1 Machine integration: registry subsumes Perf} *)

(* A fixed workload touching paging, logging and the caches. *)
let workload k =
  let open Lvm_vm in
  let sp = Kernel.create_space k in
  let seg = Kernel.create_segment k ~size:8192 in
  let region = Kernel.create_region k seg in
  let ls =
    Kernel.create_log_segment k ~size:(4 * Lvm_machine.Addr.page_size)
  in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k sp region in
  for i = 0 to 199 do
    Kernel.write_word k sp (base + (i * 4 mod 8192)) i
  done;
  Kernel.sync_log k ls

let test_snapshot_matches_perf () =
  let k = Lvm_vm.Kernel.create () in
  let before = Lvm_vm.Kernel.snapshot k in
  workload k;
  let after = Lvm_vm.Kernel.snapshot k in
  let d = Snapshot.delta ~before ~after in
  let perf = Lvm_machine.Machine.perf (Lvm_vm.Kernel.machine k) in
  (* every perf field appears under its own name with the same value *)
  List.iter
    (fun (name, v) -> check_int ("perf field " ^ name) v (Snapshot.get d name))
    (Lvm_machine.Perf.to_alist perf);
  (* the workload really did something observable *)
  Alcotest.(check bool) "page faults happened" true
    (Snapshot.get d "page_faults" > 0);
  Alcotest.(check bool) "log records happened" true
    (Snapshot.get d "log_records" > 0);
  (* kernel-level counters ride alongside the perf fields *)
  Alcotest.(check bool) "kernel counter present" true
    (Snapshot.get d "kernel.pages_materialized" > 0)

let test_collector () =
  let (), collector =
    Collector.with_collector (fun () ->
        let k1 = Lvm_vm.Kernel.create () in
        let k2 = Lvm_vm.Kernel.create () in
        workload k1;
        workload k2)
  in
  check_int "two machines captured" 2 (List.length (Collector.ctxs collector));
  let merged = Collector.snapshot collector in
  let one = Ctx.snapshot (List.hd (Collector.ctxs collector)) in
  check_int "merged doubles identical machines"
    (2 * Snapshot.get one "log_records")
    (Snapshot.get merged "log_records");
  (* merged histograms keep per-machine observations *)
  let wait =
    List.find (fun h -> Histogram.name h = "bus.wait_cycles")
      (Collector.histograms collector)
  in
  Alcotest.(check bool) "bus waits observed" true (Histogram.count wait > 0)

(* {1 Trace determinism} *)

let render_trace k =
  Format.asprintf "%a" Trace.pp (Ctx.trace (Lvm_vm.Kernel.obs k))

let test_trace_deterministic () =
  let run () =
    let k = Lvm_vm.Kernel.create () in
    workload k;
    render_trace k
  in
  Alcotest.(check string) "byte-identical traces" (run ()) (run ())

(* {1 JSON sink round-trip}

   A minimal recursive-descent parser for the subset the sink emits:
   objects, arrays, strings without escapes, and integers (plus the
   bare word [inf] used for overflow bucket bounds). *)

type json = S of string | I of int | O of (string * json) list | A of json list

let parse_json (s : string) : json =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let advance () = incr pos in
  let expect c =
    if peek () <> c then
      Alcotest.fail (Printf.sprintf "expected %c at %d" c !pos);
    advance ()
  in
  let rec value () =
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> S (string_lit ())
    | 'i' ->
      (* "inf" overflow bound *)
      pos := !pos + 3;
      S "inf"
    | _ -> I (int_lit ())
  and obj () =
    expect '{';
    if peek () = '}' then (advance (); O [])
    else begin
      let rec fields acc =
        let k = string_lit () in
        expect ':';
        let v = value () in
        let acc = (k, v) :: acc in
        if peek () = ',' then (advance (); fields acc)
        else (expect '}'; O (List.rev acc))
      in
      fields []
    end
  and arr () =
    expect '[';
    if peek () = ']' then (advance (); A [])
    else begin
      let rec elems acc =
        let v = value () in
        let acc = v :: acc in
        if peek () = ',' then (advance (); elems acc)
        else (expect ']'; A (List.rev acc))
      in
      elems []
    end
  and string_lit () =
    expect '"';
    let start = !pos in
    while peek () <> '"' do advance () done;
    let r = String.sub s start (!pos - start) in
    advance ();
    r
  and int_lit () =
    let start = !pos in
    if peek () = '-' then advance ();
    while !pos < String.length s && (match peek () with '0' .. '9' -> true | _ -> false) do
      advance ()
    done;
    int_of_string (String.sub s start (!pos - start))
  in
  let v = value () in
  if !pos <> String.length s then Alcotest.fail "trailing JSON input";
  v

let field name = function
  | O fields -> List.assoc name fields
  | _ -> Alcotest.fail ("not an object looking up " ^ name)

let test_json_roundtrip () =
  let k = Lvm_vm.Kernel.create () in
  workload k;
  let snap = Lvm_vm.Kernel.snapshot k in
  let obs = Lvm_vm.Kernel.obs k in
  let blob =
    Sink.blob_json ~label:"test" ~histograms:(Ctx.histograms obs)
      ~trace:(Ctx.trace obs) snap
  in
  let j = parse_json (String.trim blob) in
  (match field "label" j with
  | S "test" -> ()
  | _ -> Alcotest.fail "label mismatch");
  (* counters round-trip exactly, in order *)
  (match field "counters" j with
  | O fields ->
    Alcotest.(check (list (pair string int)))
      "counters round-trip"
      (Snapshot.to_alist snap)
      (List.map
         (fun (k, v) ->
           match v with I i -> (k, i) | _ -> Alcotest.fail "non-int counter")
         fields)
  | _ -> Alcotest.fail "counters not an object");
  (* each histogram round-trips name, count and sum *)
  (match field "histograms" j with
  | A hs ->
    check_int "histogram count" (List.length (Ctx.histograms obs))
      (List.length hs);
    List.iter2
      (fun h jh ->
        (match field "name" jh with
        | S n -> Alcotest.(check string) "histogram name" (Histogram.name h) n
        | _ -> Alcotest.fail "histogram name not a string");
        (match field "count" jh with
        | I c -> check_int "histogram count field" (Histogram.count h) c
        | _ -> Alcotest.fail "histogram count not an int");
        match field "buckets" jh with
        | A buckets ->
          check_int "bucket rows"
            (Array.length (Histogram.bounds h) + 1)
            (List.length buckets)
        | _ -> Alcotest.fail "buckets not an array")
      (Ctx.histograms obs) hs
  | _ -> Alcotest.fail "histograms not an array");
  (* the trace made it through as an array of event objects *)
  match field "trace" j with
  | A entries ->
    check_int "trace entries"
      (Trace.length (Ctx.trace obs))
      (List.length entries);
    List.iter
      (fun e ->
        match (field "at" e, field "ev" e) with
        | I _, S _ -> ()
        | _ -> Alcotest.fail "malformed trace entry")
      entries
  | _ -> Alcotest.fail "trace not an array"

let test_format_names () =
  List.iter
    (fun f ->
      match Sink.format_of_string (Sink.format_to_string f) with
      | Some f' when f' = f -> ()
      | _ -> Alcotest.fail "format name does not round-trip")
    Sink.all_formats;
  Alcotest.(check bool) "unknown format rejected" true
    (Sink.format_of_string "xml" = None)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "counter registry" `Quick test_counter_registry;
        Alcotest.test_case "snapshot delta" `Quick test_snapshot_delta;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        Alcotest.test_case "observe allocates nothing" `Quick
          test_histogram_observe_allocates_nothing;
        Alcotest.test_case "trace ring" `Quick test_trace_ring;
        Alcotest.test_case "snapshot matches perf" `Quick
          test_snapshot_matches_perf;
        Alcotest.test_case "collector" `Quick test_collector;
        Alcotest.test_case "trace deterministic" `Quick
          test_trace_deterministic;
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "format names" `Quick test_format_names;
      ] );
  ]
