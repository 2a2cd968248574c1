(* The registry is the test: every experiment, paper table or figure and
   comparison alike, runs at its one size and must meet all its targets.
   Its figures are simulated cycles, so each comparison's committed
   BENCH_n.json file must also be exactly what the registry
   regenerates. Experiments whose targets fall in named groups also get
   one case per group, over the same run. *)

open Lvm_experiments

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) ignore

let records =
  [ ("store", "BENCH_5.json"); ("fams", "BENCH_6.json");
    ("repl", "BENCH_7.json"); ("hotshard", "BENCH_8.json");
    ("logdiet", "BENCH_9.json"); ("mvcc", "BENCH_10.json") ]

let groups =
  [ ("fig7", [ "shape"; "overload collapse" ]);
    ("fig9", [ "crossover band"; "reset linear" ]) ]

let outcomes =
  List.map
    (fun (e : Experiments.t) -> (e.id, lazy (e.run null_ppf)))
    Experiments.all

let outcome id = Lazy.force (List.assoc id outcomes)

let read_record file =
  String.trim (In_channel.with_open_text ("../" ^ file) In_channel.input_all)

let case (e : Experiments.t) =
  Alcotest.test_case e.id `Slow (fun () ->
      let o = outcome e.id in
      Alcotest.(check (list string)) (e.id ^ " missed targets") [] o.missed;
      Alcotest.(check (option string))
        (e.id ^ " record")
        (Option.map read_record (List.assoc_opt e.id records))
        o.blob)

let group_case id name =
  Alcotest.test_case name `Slow (fun () ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s %s missed targets" id name)
        []
        (List.filter
           (String.starts_with ~prefix:(name ^ ": "))
           (outcome id).missed))

let suites =
  ("experiments", List.map case Experiments.all)
  :: List.map
       (fun (id, names) -> ("experiments." ^ id, List.map (group_case id) names))
       groups
