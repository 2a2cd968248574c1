type point = { c : int; logged : float; unlogged : float }
type cluster = { writes : int; points : point list }

let cs = [ 0; 32; 64; 128; 192; 256; 384; 512 ]
let bursts = [ 2; 4; 8 ]
let iterations = 4000

let measure () =
  List.map
    (fun writes ->
      let points =
        List.map
          (fun c ->
            let logged_r =
              Writes_loop.run ~iterations ~c ~unlogged:0 ~logged:writes ()
            in
            let unlogged_r =
              Writes_loop.run ~iterations ~c ~unlogged:writes ~logged:0 ()
            in
            {
              c;
              logged = Writes_loop.per_write logged_r ~c
                  ~writes_per_iter:writes;
              unlogged =
                Writes_loop.per_write unlogged_r ~c ~writes_per_iter:writes;
            })
          cs
      in
      { writes; points })
    bursts

let run ppf =
  Report.section ppf "Figure 10: CPU Cost of Logged Writes";
  let clusters = measure () in
  List.iter
    (fun cl ->
      Report.subsection ppf
        (Printf.sprintf "cluster of %d writes" cl.writes);
      Report.table ppf
        ~header:
          [ "compute cycles"; "with logging (cyc/write)";
            "without logging (cyc/write)" ]
        (List.map
           (fun p ->
             [ Report.fi p.c; Report.ff p.logged; Report.ff p.unlogged ])
           cl.points))
    clusters;
  Report.note ppf
    "paper shape: overload blows up the logged cost at small c; on the \
     flat part the logged-unlogged gap is the write-through cost, \
     growing with burst size.";
  let gap writes =
    let cl = List.find (fun cl -> cl.writes = writes) clusters in
    let p = List.find (fun p -> p.c = 512) cl.points in
    p.logged -. p.unlogged
  in
  let g2 = gap 2 and g4 = gap 4 and g8 = gap 8 in
  Report.claims
    [
      ( g2 > 0.,
        Printf.sprintf "logging costs more at c=512 (measured gap %.2f)" g2 );
      ( g2 <= g4 +. 0.01 && g4 <= g8 +. 0.01,
        Printf.sprintf
          "logged-unlogged gap at c=512 grows with burst (measured %.2f, \
           %.2f, %.2f)" g2 g4 g8 );
    ]
