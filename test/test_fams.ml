(* Failure-atomic snapshots ([Lvm_fams]): unit tests for the snapshot
   API and its error surface, the torn-snapshot crash sweeps, and a
   property test that interleaved snapshot / plain-write / recover
   sequences land on prefix-consistent states. *)

open Lvm_vm
module Fams = Lvm_fams
module Sm = Lvm_fault.Splitmix

let check = Alcotest.(check int)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.fail (what ^ ": " ^ Lvm.Lvm_error.to_string e)

let boot () =
  let k = Kernel.create () in
  let sp = Kernel.create_space k in
  (k, sp)

let map_default ?(size = 256) ?(group = 1) k sp =
  ok "map"
    (Fams.map { Fams.Config.default with log_pages = 4; group } k sp ~size)

let words f =
  Array.init
    (Fams.size f / 4)
    (fun i -> ok "read" (Fams.read_word f ~off:(i * 4)))

(* {1 Unit tests} *)

let test_snapshot_basic () =
  let k, sp = boot () in
  let f = map_default k sp in
  ok "write" (Fams.write_word f ~off:0 11);
  ok "write" (Fams.write_word f ~off:4 22);
  ok "write" (Fams.write_word f ~off:64 33);
  let r = ok "snapshot" (Fams.snapshot f) in
  check "snapshot id" 1 r.Fams.snap;
  Alcotest.(check bool) "forced at group 1" true r.Fams.forced;
  Alcotest.(check bool) "has spans" true (r.Fams.spans > 0);
  Alcotest.(check bool) "logged records" true (r.Fams.log_records > 0);
  check "read back" 11 (ok "read" (Fams.read_word f ~off:0));
  check "snapshots taken" 1 (Fams.snapshots f)

let test_snapshot_atomic_vs_crash () =
  let k, sp = boot () in
  let f = map_default k sp in
  ok "write" (Fams.write_word f ~off:0 1);
  ok "write" (Fams.write_word f ~off:4 2);
  ignore (ok "snapshot" (Fams.snapshot f));
  (* plain writes after the boundary: visible in the working view,
     never durable until the next snapshot *)
  ok "write" (Fams.write_word f ~off:0 9);
  ok "write" (Fams.write_word f ~off:8 9);
  check "working view" 9 (ok "read" (Fams.read_word f ~off:0));
  ignore (ok "recover" (Fams.recover f));
  check "boundary word 0" 1 (ok "read" (Fams.read_word f ~off:0));
  check "boundary word 1" 2 (ok "read" (Fams.read_word f ~off:4));
  check "unsnapshotted write rolled back" 0
    (ok "read" (Fams.read_word f ~off:8));
  (* the region stays usable; snapshot ids stay monotonic *)
  ok "write" (Fams.write_word f ~off:8 5);
  let r = ok "snapshot" (Fams.snapshot f) in
  check "monotonic snap id" 2 r.Fams.snap;
  ignore (ok "recover" (Fams.recover f));
  check "second epoch durable" 5 (ok "read" (Fams.read_word f ~off:8))

let test_empty_snapshot () =
  let k, sp = boot () in
  let f = map_default k sp in
  let r = ok "snapshot" (Fams.snapshot f) in
  check "no spans" 0 r.Fams.spans;
  check "no bytes" 0 r.Fams.bytes;
  Alcotest.(check bool) "still forced" true r.Fams.forced;
  ignore (ok "recover" (Fams.recover f));
  check "still zero" 0 (ok "read" (Fams.read_word f ~off:0))

let test_span_coalescing_and_seal () =
  let k, sp = boot () in
  let f = map_default k sp in
  (* contiguous words land in one line-coalesced span *)
  for i = 0 to 7 do
    ok "write" (Fams.write_word f ~off:(i * 4) (i + 1))
  done;
  let r = ok "snapshot" (Fams.snapshot f) in
  check "one coalesced span" 1 r.Fams.spans;
  Alcotest.(check bool) "span covers the words" true (r.Fams.bytes >= 32);
  (* the snapshot sealed the hardware log: the whole span was truncated
     and the logger re-armed at the front *)
  check "log sealed" 0 (Lvm_log.length (Fams.log f));
  let stats = Lvm_log.stats (Fams.log f) in
  check "write_pos rearmed" 0 stats.Lvm_log.write_pos

let test_error_surface () =
  let k, sp = boot () in
  let f = map_default k sp in
  (match Fams.read_word f ~off:4096 with
  | Error (Lvm.Lvm_error.Vm (Error.Out_of_segment _)) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Vm Out_of_segment");
  (match Fams.map Fams.Config.default k sp ~size:3 with
  | Error (Lvm.Lvm_error.Vm (Error.Invalid _)) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Vm Invalid");
  (match Fams.map { Fams.Config.default with group = 0 } k sp ~size:256 with
  | Error (Lvm.Lvm_error.Vm (Error.Out_of_range _)) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Vm Out_of_range");
  (* the store's refusals are plain [Lvm_error] constructors now — one
     scheme end to end, same rendering the per-module printer always
     produced *)
  Alcotest.(check string)
    "store error string" "overloaded(shard 3)"
    (Lvm.Lvm_error.to_string (Lvm.Lvm_error.Overloaded { shard = 3 }));
  Alcotest.(check string)
    "snapshot error string" "snapshot unavailable (ts 9, readable [2, 7])"
    (Lvm.Lvm_error.to_string
       (Lvm.Lvm_error.Snapshot_unavailable { ts = 9; floor = 2; frontier = 7 }))

let test_backpressure () =
  let k, sp = boot () in
  (* one-page log, no headroom: enough plain writes must surface the
     typed exhaustion as a result, before any record is absorbed *)
  let f =
    ok "map"
      (Fams.map
         { Fams.Config.log_pages = 1; max_log_pages = Some 1; group = 1 }
         k sp ~size:8192)
  in
  let rec drive i =
    if i >= 8192 / 4 then Alcotest.fail "backpressure never engaged"
    else
      match Fams.write_word f ~off:(i * 4) i with
      | Ok () -> drive (i + 1)
      | Error (Lvm.Lvm_error.Vm (Error.Log_exhausted _)) -> i
      | Error e ->
        Alcotest.fail ("unexpected error: " ^ Lvm.Lvm_error.to_string e)
  in
  let accepted = drive 0 in
  Alcotest.(check bool) "some writes accepted" true (accepted > 0);
  (* a snapshot drains the log; writing resumes *)
  ignore (ok "snapshot" (Fams.snapshot f));
  ok "write resumes" (Fams.write_word f ~off:0 7);
  check "resumed write visible" 7 (ok "read" (Fams.read_word f ~off:0))

let test_group_commit () =
  let k, sp = boot () in
  let f = map_default ~group:2 k sp in
  ok "write" (Fams.write_word f ~off:0 1);
  let r1 = ok "snapshot" (Fams.snapshot f) in
  Alcotest.(check bool) "first boundary unforced" false r1.Fams.forced;
  check "one pending" 1 (Fams.pending_snapshots f);
  ok "write" (Fams.write_word f ~off:4 2);
  let r2 = ok "snapshot" (Fams.snapshot f) in
  Alcotest.(check bool) "batch boundary forced" true r2.Fams.forced;
  check "batch drained" 0 (Fams.pending_snapshots f);
  ignore (ok "recover" (Fams.recover f));
  check "both boundaries durable" 1 (ok "read" (Fams.read_word f ~off:0));
  check "both boundaries durable (2)" 2 (ok "read" (Fams.read_word f ~off:4));
  (* an unforced boundary rolls back on crash *)
  ok "write" (Fams.write_word f ~off:8 3);
  let r3 = ok "snapshot" (Fams.snapshot f) in
  Alcotest.(check bool) "third boundary unforced" false r3.Fams.forced;
  ignore (ok "recover" (Fams.recover f));
  check "unforced boundary rolled back" 0
    (ok "read" (Fams.read_word f ~off:8));
  (* flush makes the tail durable *)
  ok "write" (Fams.write_word f ~off:8 4);
  ignore (ok "snapshot" (Fams.snapshot f));
  ok "flush" (Fams.flush f);
  ignore (ok "recover" (Fams.recover f));
  check "flushed boundary durable" 4 (ok "read" (Fams.read_word f ~off:8))

(* Satellite: [Log_reader.fold]'s per-page translation cache and captured
   length must go stale-proof when the fold's own callback truncates the
   log (the segment's layout generation bumps on every re-arm). *)
let test_fold_generation_invalidation () =
  let k, sp = boot () in
  let seg = Kernel.create_segment k ~size:4096 in
  let region = Kernel.create_region k seg in
  let log = Lvm_log.create k ~size:4096 in
  Kernel.set_region_log k region (Some (Lvm_log.segment log));
  let base = Kernel.bind k sp region in
  for i = 0 to 15 do
    Kernel.write_word k sp (base + (i * 4)) (i + 1)
  done;
  check "records logged" 16 (Lvm.Log_reader.record_count k (Lvm_log.segment log));
  (* truncate the whole log from inside the fold after the first record:
     the remaining walk must observe the new (empty) layout, not the
     captured pre-truncation length *)
  let visited =
    Lvm.Log_reader.fold k (Lvm_log.segment log) ~init:0 ~f:(fun n ~off:_ _ ->
        if n = 0 then ignore (Lvm_log.seal log);
        n + 1)
  in
  check "fold stopped at the new layout" 1 visited;
  check "log empty after mid-fold seal" 0
    (Lvm.Log_reader.record_count k (Lvm_log.segment log))

(* {1 Crash sweeps} *)

let sweep_ok ?(expect_torn = true) name (o : Lvm_tpc.Crash_sweep.outcome) =
  Alcotest.(check (list string)) (name ^ " invariants") [] o.failures;
  Alcotest.(check bool) (name ^ " crashed some runs") true (o.crashed > 0);
  (* Under group commit a torn tail is usually unforced, so the volatile
     tail discards it before the scan can even see the tear — recovery is
     still correct, but no torn-tail event fires. *)
  if expect_torn then
    Alcotest.(check bool) (name ^ " detected torn tails") true (o.torn > 0)

let test_sweep_single () =
  sweep_ok "single"
    (Lvm_tpc.Crash_sweep.run_fams ~seed:7 ~snaps:8 ~writes:6 ~points:50
       ~torn_points:12 ~force_points:6 ())

let test_sweep_group () =
  sweep_ok ~expect_torn:false "group4"
    (Lvm_tpc.Crash_sweep.run_fams ~seed:11 ~snaps:8 ~writes:6 ~points:30
       ~torn_points:10 ~force_points:5 ~group:4 ())

let test_sweep_regions () =
  sweep_ok "regions2"
    (Lvm_tpc.Crash_sweep.run_fams ~seed:13 ~snaps:6 ~writes:5 ~points:30
       ~torn_points:10 ~force_points:5 ~regions:2 ())

(* {1 Property: prefix-consistent recovery}

   Interleave plain writes, snapshots and crash-recoveries at random
   (seeded splitmix stream, like test_prop's harness). The model tracks
   the boundary sequence; a recovery must land exactly on the newest
   {e forced} boundary — never a mixture, never an unforced suffix. *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( try int_of_string v with _ -> default)
  | None -> default

let prop_cases = env_int "LVM_PROP_CASES" 120
let suite_seed = env_int "LVM_TEST_SEED" 0x5eed

let expect cond fmt = Printf.ksprintf (fun s -> if not cond then failwith s) fmt

let prop_prefix_consistent rng size =
  let nwords = 16 in
  let group = 1 + Sm.int rng ~bound:3 in
  let k, sp = boot () in
  let f = map_default ~size:(nwords * 4) ~group k sp in
  let current = Array.make nwords 0 in
  (* newest first; index 0 = boundary [completed] *)
  let boundaries = ref [ Array.make nwords 0 ] in
  let completed = ref 0 in
  let verify_against expected what =
    let actual = words f in
    Array.iteri
      (fun i v ->
        expect (v = expected.(i)) "%s: word %d got %d expected %d" what i v
          expected.(i))
      actual
  in
  for _ = 1 to size do
    match Sm.int rng ~bound:8 with
    | 0 | 1 | 2 | 3 | 4 ->
      let i = Sm.int rng ~bound:nwords in
      let v = Sm.int rng ~bound:0xFFFF in
      (match Fams.write_word f ~off:(i * 4) v with
      | Ok () -> current.(i) <- v
      | Error e -> failwith ("write: " ^ Lvm.Lvm_error.to_string e))
    | 5 | 6 -> (
      match Fams.snapshot f with
      | Ok _ ->
        boundaries := Array.copy current :: !boundaries;
        incr completed
      | Error e -> failwith ("snapshot: " ^ Lvm.Lvm_error.to_string e))
    | _ ->
      (* crash: unforced boundaries and the working suffix die; the
         recovered state is exactly the newest forced boundary *)
      let pending = Fams.pending_snapshots f in
      let forced = !completed - pending in
      (match Fams.recover f with
      | Ok _ -> ()
      | Error e -> failwith ("recover: " ^ Lvm.Lvm_error.to_string e));
      let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
      boundaries := drop pending !boundaries;
      completed := forced;
      let expected = List.hd !boundaries in
      verify_against expected "post-recovery";
      Array.blit expected 0 current 0 nwords
  done;
  (* final: flush, crash, and the last boundary must hold in full *)
  (match Fams.flush f with
  | Ok () -> ()
  | Error e -> failwith ("flush: " ^ Lvm.Lvm_error.to_string e));
  (match Fams.recover f with
  | Ok _ -> ()
  | Error e -> failwith ("recover: " ^ Lvm.Lvm_error.to_string e));
  verify_against (List.hd !boundaries) "final"

let prop_check ?(max_size = 48) name prop =
  let failing = ref None in
  (try
     for case = 0 to prop_cases - 1 do
       let case_seed = (suite_seed * 1_000_003) + case in
       let size = 1 + Sm.int (Sm.create ~seed:case_seed) ~bound:max_size in
       let fails sz =
         match prop (Sm.create ~seed:((case_seed * 2) + 1)) sz with
         | () -> None
         | exception e -> Some (Printexc.to_string e)
       in
       match fails size with
       | None -> ()
       | Some msg ->
         let rec shrink sz msg =
           if sz <= 1 then (sz, msg)
           else
             match fails (sz / 2) with
             | Some msg' -> shrink (sz / 2) msg'
             | None -> (sz, msg)
         in
         failing := Some (case, case_seed, shrink size msg);
         raise Exit
     done
   with Exit -> ());
  match !failing with
  | None -> ()
  | Some (case, case_seed, (sz, msg)) ->
    Alcotest.fail
      (Printf.sprintf
         "%s: case %d failed at size %d: %s\n\
          reproduce with LVM_TEST_SEED=%d (case seed %d)"
         name case sz msg suite_seed case_seed)

let test_prop_prefix_consistent () =
  prop_check "fams prefix-consistent recovery" prop_prefix_consistent

let suites =
  [
    ( "fams",
      [
        Alcotest.test_case "snapshot basics" `Quick test_snapshot_basic;
        Alcotest.test_case "snapshot atomic vs crash" `Quick
          test_snapshot_atomic_vs_crash;
        Alcotest.test_case "empty snapshot" `Quick test_empty_snapshot;
        Alcotest.test_case "span coalescing + log seal" `Quick
          test_span_coalescing_and_seal;
        Alcotest.test_case "unified error surface" `Quick test_error_surface;
        Alcotest.test_case "backpressure" `Quick test_backpressure;
        Alcotest.test_case "group commit" `Quick test_group_commit;
        Alcotest.test_case "fold survives mid-fold truncation" `Quick
          test_fold_generation_invalidation;
      ] );
    ( "fams.crash",
      [
        Alcotest.test_case "torn-snapshot sweep" `Quick test_sweep_single;
        Alcotest.test_case "torn-snapshot sweep group 4" `Quick
          test_sweep_group;
        Alcotest.test_case "torn-snapshot sweep 2 regions" `Quick
          test_sweep_regions;
        Alcotest.test_case "prefix-consistent recovery (prop)" `Quick
          test_prop_prefix_consistent;
      ] );
  ]
