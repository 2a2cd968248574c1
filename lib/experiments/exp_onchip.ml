open Lvm_machine

type point = {
  c : int;
  prototype_per_iter : float;
  onchip_per_iter : float;
  prototype_overloads : int;
  onchip_overloads : int;
}

let cs = [ 0; 10; 20; 30; 60; 120; 240; 480 ]
let iterations = 10_000

let measure () =
  List.map
    (fun c ->
      let proto =
        Writes_loop.run ~hw:Logger.Prototype ~iterations ~c ~unlogged:0
          ~logged:1 ()
      in
      let onchip =
        Writes_loop.run ~hw:Logger.On_chip ~iterations ~c ~unlogged:0
          ~logged:1 ()
      in
      {
        c;
        prototype_per_iter = Writes_loop.per_iteration proto;
        onchip_per_iter = Writes_loop.per_iteration onchip;
        prototype_overloads = proto.Writes_loop.overloads;
        onchip_overloads = onchip.Writes_loop.overloads;
      })
    cs

let run ppf =
  Report.section ppf "Ablation A: Prototype vs On-chip Logging (Section 4.6)";
  let points = measure () in
  Report.table ppf
    ~header:
      [ "compute cycles"; "prototype (cyc/iter)"; "on-chip (cyc/iter)";
        "prototype overloads"; "on-chip overloads" ]
    (List.map
       (fun p ->
         [
           Report.fi p.c;
           Report.ff p.prototype_per_iter;
           Report.ff p.onchip_per_iter;
           Report.fi p.prototype_overloads;
           Report.fi p.onchip_overloads;
         ])
       points);
  Report.note ppf
    "on-chip logging never takes the overload interrupt; the cost of a \
     logged write approaches that of an unlogged write-through, as \
     Section 4.6 argues.";
  let at c = List.find (fun p -> p.c = c) points in
  Report.claims
    (List.concat_map
       (fun p ->
         [
           ( p.onchip_overloads = 0,
             Printf.sprintf "on-chip never overloads (%d at c=%d)"
               p.onchip_overloads p.c );
           ( p.onchip_per_iter <= p.prototype_per_iter +. 0.01,
             Printf.sprintf
               "on-chip no slower than prototype at c=%d (measured %.2f vs \
                %.2f)" p.c p.onchip_per_iter p.prototype_per_iter );
         ])
       [ at 0; at 30 ]
    @ [ ((at 0).prototype_overloads > 0, "prototype overloads at c=0") ])
