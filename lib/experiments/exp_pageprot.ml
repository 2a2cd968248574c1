open Lvm_sim

type row = {
  strategy : State_saving.t;
  per_event : float;
  protect_faults : int;
  overloads : int;
}

type setting = { c : int; s : int; w : int; rows : row list }

let settings = [ (256, 64, 2); (512, 256, 4); (2048, 256, 8) ]
let events = 2000

let strategies =
  [ State_saving.Copy_based; State_saving.Page_protect;
    State_saving.Lvm_based ]

let measure () =
  List.map
    (fun (c, s, w) ->
      let rows =
        List.map
          (fun strategy ->
            let p = { Synthetic.default_params with Synthetic.events; c; s; w }
            in
            let r = Synthetic.run p strategy in
            {
              strategy;
              per_event = r.Synthetic.per_event;
              protect_faults = r.Synthetic.protect_faults;
              overloads = r.Synthetic.overloads;
            })
          strategies
      in
      { c; s; w; rows })
    settings

let run ppf =
  Report.section ppf
    "Ablation B: State-saving Techniques (copy vs page-protect vs LVM)";
  let settings = measure () in
  List.iter
    (fun st ->
      Report.subsection ppf
        (Printf.sprintf "c=%d, s=%d bytes, w=%d writes/event" st.c st.s st.w);
      Report.table ppf
        ~header:
          [ "strategy"; "cycles/event"; "protect faults"; "overloads" ]
        (List.map
           (fun r ->
             [
               State_saving.to_string r.strategy;
               Report.ff r.per_event;
               Report.fi r.protect_faults;
               Report.fi r.overloads;
             ])
           st.rows))
    settings;
  Report.note ppf
    "page-protect checkpoints only (no per-write log): cheap when few \
     pages are touched per interval but gives coarse rollback; LVM has \
     the lowest steady-state overhead.";
  let st = List.find (fun st -> st.c = 512) settings in
  let row strategy = List.find (fun r -> r.strategy = strategy) st.rows in
  let copy = row State_saving.Copy_based
  and pageprot = row State_saving.Page_protect
  and lvm = row State_saving.Lvm_based in
  Report.claims
    [
      ( lvm.per_event < copy.per_event && lvm.per_event < pageprot.per_event,
        Printf.sprintf
          "lvm cheapest at c=512,s=256,w=4 (measured %.2f vs copy %.2f, \
           page-protect %.2f)" lvm.per_event copy.per_event
          pageprot.per_event );
      (pageprot.protect_faults > 0, "page-protect takes protection faults");
    ]
