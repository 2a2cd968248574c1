open Lvm_sim

type point = { c : int; speedup : float; lvm_overloads : int }
type curve = { w : int; s : int; points : point list }

let curves_spec = [ (1, 32); (2, 64); (4, 128); (8, 256) ]
let cs = [ 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]
let events = 1500

let measure () =
  List.map
    (fun (w, s) ->
      let points =
        List.map
          (fun c ->
            let p = { Synthetic.default_params with Synthetic.events; c; s; w }
            in
            let copy = Synthetic.run p State_saving.Copy_based in
            let lvm = Synthetic.run p State_saving.Lvm_based in
            {
              c;
              speedup =
                float_of_int copy.Synthetic.cycles
                /. float_of_int lvm.Synthetic.cycles;
              lvm_overloads = lvm.Synthetic.overloads;
            })
          cs
      in
      { w; s; points })
    curves_spec

let at c cu = List.find (fun p -> p.c = c) cu.points
let name cu = Printf.sprintf "w=%d,s=%d" cu.w cu.s

let run ppf =
  Report.section ppf "Figure 7: LVM vs Copy-based Checkpointing";
  let curves = measure () in
  let header = "compute cycles" :: List.map name curves in
  let rows =
    List.map
      (fun c ->
        Report.fi c
        :: List.map
             (fun cu ->
               let p = at c cu in
               Report.ff p.speedup
               ^ if p.lvm_overloads > 0 then "*" else "")
             curves)
      cs
  in
  Report.table ppf ~header rows;
  Report.note ppf
    "speedup = copy-based elapsed / LVM elapsed; '*' marks logger \
     overload. Paper shape: speedup falls with c, rises with s, and \
     collapses below c~200 for w=8 where the prototype logger overflows.";
  let w1 = List.hd curves and w8 = List.nth curves 3 in
  let shape =
    List.concat_map
      (fun cu ->
        let speeds =
          List.filter_map
            (fun p -> if p.c >= 256 then Some p.speedup else None)
            cu.points
        in
        let last = (at 8192 cu).speedup in
        [
          ( speeds = List.sort (fun a b -> compare b a) speeds,
            name cu ^ " speedup falls with c >= 256" );
          ( last > 0.98 && last < 1.15,
            Printf.sprintf "%s speedup at c=8192 in (0.98, 1.15) (measured \
                            %.2f)" (name cu) last );
        ])
      curves
    @ [
        ( (at 256 w8).speedup > (at 256 w1).speedup,
          Printf.sprintf "s=256 beats s=32 at c=256 (measured %.2f vs %.2f)"
            (at 256 w8).speedup (at 256 w1).speedup );
      ]
  in
  let collapse =
    [
      ( (at 64 w8).lvm_overloads > 0, "w=8 logger overloads at c=64" );
      ( (at 64 w8).speedup < (at 64 w1).speedup,
        Printf.sprintf
          "overload collapses w=8 speedup at c=64 below w=1's (measured \
           %.2f vs %.2f)" (at 64 w8).speedup (at 64 w1).speedup );
    ]
  in
  Report.claims
    (Report.group "shape" shape @ Report.group "overload collapse" collapse)
