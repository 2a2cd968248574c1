type point = {
  c : int;
  logged_per_iter : float;
  unlogged_per_iter : float;
  overloads_per_1000 : float;
  overload_cost : float;
}

(* fine steps around the overload threshold (~27), then the paper's
   sweep up to 630 *)
let cs =
  [ 0; 5; 10; 15; 20; 24; 27; 30 ] @ List.init 10 (fun i -> 60 * (i + 1))

let iterations = 20_000

let measure () =
  List.map
    (fun c ->
      let logged = Writes_loop.run ~iterations ~c ~unlogged:0 ~logged:1 () in
      let unlogged = Writes_loop.run ~iterations ~c ~unlogged:1 ~logged:0 ()
      in
      {
        c;
        logged_per_iter = Writes_loop.per_iteration logged;
        unlogged_per_iter = Writes_loop.per_iteration unlogged;
        overloads_per_1000 =
          1000. *. float_of_int logged.Writes_loop.overloads
          /. float_of_int iterations;
        overload_cost =
          (if logged.Writes_loop.overloads = 0 then 0.
           else
             float_of_int logged.Writes_loop.overload_cycles
             /. float_of_int logged.Writes_loop.overloads);
      })
    cs

let overload_threshold_c points =
  List.find_map
    (fun p -> if p.overloads_per_1000 = 0. then Some p.c else None)
    (List.sort (fun a b -> compare a.c b.c) points)

let run ppf =
  let points = measure () in
  Report.section ppf "Figure 11: Total Cost of a Logged Write";
  Report.table ppf
    ~header:
      [ "compute cycles"; "with logging (cyc/iter)";
        "without logging (cyc/iter)" ]
    (List.map
       (fun p ->
         [ Report.fi p.c; Report.ff p.logged_per_iter;
           Report.ff p.unlogged_per_iter ])
       points);
  (match
     List.find_opt (fun p -> p.overload_cost > 0.) (List.rev points)
   with
  | Some p ->
    Format.fprintf ppf
      "mean overload penalty: %.0f cycles (paper: more than 30,000)@."
      p.overload_cost
  | None -> ());
  Report.section ppf "Figure 12: Overload Events";
  Report.table ppf
    ~header:[ "compute cycles"; "overloads per 1000 iterations" ]
    (List.map
       (fun p -> [ Report.fi p.c; Report.ff p.overloads_per_1000 ])
       points);
  (match overload_threshold_c points with
  | Some c ->
    Format.fprintf ppf
      "overload avoided from c = %d compute cycles per logged write \
       (paper: ~27)@."
      c
  | None -> Format.fprintf ppf "overload present across the whole sweep@.");
  let at c = List.find (fun p -> p.c = c) points in
  let p0 = at 0 and p27 = at 27 and p60 = at 60 in
  Report.claims
    [
      (p0.overloads_per_1000 > 0., "logger overloads at c=0");
      ( p27.overloads_per_1000 = 0.,
        Printf.sprintf "no overloads at c=27 (measured %.2f per 1000)"
          p27.overloads_per_1000 );
      ( p0.overload_cost > 30_000.,
        Printf.sprintf "overload penalty at c=0 > 30000 cycles (measured %.0f)"
          p0.overload_cost );
      ( p0.logged_per_iter > p27.logged_per_iter,
        Printf.sprintf
          "iteration cost falls from c=0 to c=27 (measured %.1f -> %.1f)"
          p0.logged_per_iter p27.logged_per_iter );
      ( p60.logged_per_iter -. p60.unlogged_per_iter < 10.,
        Printf.sprintf
          "logging adds < 10 cycles per iteration at c=60 (measured %.2f)"
          (p60.logged_per_iter -. p60.unlogged_per_iter) );
    ]
