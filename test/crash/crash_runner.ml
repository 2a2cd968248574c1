(* Driver for the crash-sweep CI gate (`dune build @crash`).

   Runs every crash-sweep subject at its CI size, twice. Fails on any
   invariant violation, on a sweep in which no fault fired, on a missing
   torn tail where the subject must see one, and on two runs whose
   traces differ — the determinism guarantee of the fault plan engine. *)

module C = Lvm_tpc.Crash_sweep

(* name, sweep, must see a torn tail? Under group commit the torn bytes
   land in the volatile WAL tail and are dropped wholesale before the
   scan; replication's schedules are transport plans, not WAL tears. *)
let sweeps =
  [ ("tpca", (fun () -> C.run ~points:200 ~txns:12 ()), true);
    ("tpca 4 cpus", (fun () -> C.run ~points:60 ~txns:12 ~cpus:4 ()), true);
    ("tpca group 4", (fun () -> C.run ~points:60 ~txns:12 ~group:4 ()), false);
    ("store 4 shards", (fun () -> C.run ~shards:4 ()), true);
    ("fams", (fun () -> C.run_fams ()), true);
    ("split",
     (fun () -> C.run_split ~points:90 ~torn_points:8 ~cutover_points:2 ()),
     true);
    ("repl", (fun () -> C.run_repl ~kill_points:84 ~fault_only:16 ()), false) ]

let check (name, sweep, expect_torn) =
  let o : C.outcome = sweep () in
  Printf.printf
    "%s: %d points (%d crashed, %d completed, %d torn), %d failures\n%!" name
    o.points o.crashed o.completed o.torn (List.length o.failures);
  let problems =
    o.failures
    @ (if o.crashed = 0 then [ "no injected fault fired" ] else [])
    @ (if expect_torn && o.torn = 0 then [ "no torn tail was ever detected" ]
       else [])
    @ (if (sweep ()).trace <> o.trace then
         [ "two runs produced different traces" ]
       else [])
  in
  List.iter (Printf.printf "FAIL %s: %s\n" name) problems;
  problems = []

let () =
  let results = List.map check sweeps in
  if List.mem false results then exit 1;
  print_endline "crash sweeps: all subjects pass, traces byte-identical"
