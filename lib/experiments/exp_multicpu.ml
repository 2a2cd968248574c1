type point = {
  cpus : int;
  per_iter : float;
  bus_contention : int;
  overloads : int;
  overload_cycles : int;
}

(* A moderate compute gap: enough that one CPU alone never overloads the
   logger FIFO, low enough that four write streams together push the
   shared logger toward its drain limit — the regime where bus and
   logger contention are visible. *)
let c = 30
let iterations = 10_000

let sweep () =
  List.map
    (fun cpus ->
      let r = Writes_loop.run ~cpus ~iterations ~c ~unlogged:0 ~logged:1 () in
      {
        cpus;
        per_iter = Writes_loop.per_iteration r;
        bus_contention = r.Writes_loop.bus_contention;
        overloads = r.Writes_loop.overloads;
        overload_cycles = r.Writes_loop.overload_cycles;
      })
    [ 1; 2; 3; 4 ]

(* Smallest compute gap at which a full run sees no overload interrupt —
   the Figure 11/12 "overload avoided from c" point. More CPUs share one
   logger, so the gap must be larger (the per-CPU write rate lower)
   before overload stops: onset at a lower per-CPU write rate. *)
let overload_onset_c ~cpus =
  let rec search c =
    if c > 640 then None
    else
      let r = Writes_loop.run ~cpus ~iterations ~c ~unlogged:0 ~logged:1 () in
      if r.Writes_loop.overloads = 0 then Some c else search (c + 5)
  in
  search 0

let run ppf =
  let points = sweep () in
  Report.section ppf "Multi-CPU: shared-bus contention (1-4 CPUs)";
  Report.table ppf
    ~header:
      [ "cpus"; "cycles/iter"; "bus contention (cyc)"; "overloads";
        "overload cycles" ]
    (List.map
       (fun p ->
         [ Report.fi p.cpus; Report.ff p.per_iter; Report.fi p.bus_contention;
           Report.fi p.overloads; Report.fi p.overload_cycles ])
       points);
  Report.note ppf
    "each CPU runs the same per-CPU write loop; contention is time spent \
     waiting behind another CPU's bus transaction";
  Report.section ppf "Multi-CPU: logger overload onset";
  let onset cpus = overload_onset_c ~cpus in
  let show = function Some c -> Report.fi c | None -> "> 640" in
  Report.table ppf
    ~header:[ "cpus"; "overload avoided from c =" ]
    [ [ "1"; show (onset 1) ]; [ "4"; show (onset 4) ] ];
  Report.note ppf
    "4 CPUs share one logger, so overload persists to a larger compute \
     gap (i.e. a lower per-CPU write rate) than with 1 CPU";
  Report.claims []
