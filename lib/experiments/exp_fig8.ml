open Lvm_sim

type point = { fraction : float; w : int; speedup : float }
type curve = { s : int; c : int; points : point list }

let curves_spec = [ (32, 256); (64, 512); (128, 1024); (256, 2048) ]
let fractions = [ 0.125; 0.25; 0.375; 0.5; 0.625; 0.75; 0.875; 1.0 ]
let events = 1500

let measure () =
  List.map
    (fun (s, c) ->
      let points =
        List.filter_map
          (fun fraction ->
            let w =
              int_of_float (Float.round (fraction *. float_of_int s /. 4.))
            in
            if w < 1 then None
            else
              let p =
                { Synthetic.default_params with Synthetic.events; c; s; w }
              in
              Some { fraction; w; speedup = Synthetic.speedup p })
          fractions
      in
      { s; c; points })
    curves_spec

let name cu = Printf.sprintf "s=%d,c=%d" cu.s cu.c

let run ppf =
  Report.section ppf "Figure 8: Effect of Number of Writes on LVM";
  let curves = measure () in
  let header = "fraction written" :: List.map name curves in
  let rows =
    List.map
      (fun f ->
        Report.ff ~decimals:3 f
        :: List.map
             (fun cu ->
               match List.find_opt (fun p -> p.fraction = f) cu.points with
               | Some p -> Report.ff p.speedup
               | None -> "-")
             curves)
      fractions
  in
  Report.table ppf ~header rows;
  Report.note ppf
    "paper shape: speedup decreases slowly with the fraction written; \
     only near fraction 1 does write-through overhead bite.";
  Report.claims
    (List.concat_map
       (fun cu ->
         let at f = (List.find (fun p -> p.fraction = f) cu.points).speedup in
         let lo = at 0.125 and mid = at 0.5 and hi = at 1.0 in
         [
           ( lo >= mid && mid >= hi -. 0.02,
             Printf.sprintf
               "%s speedup does not rise with the fraction written (measured \
                %.2f, %.2f, %.2f at 1/8, 1/2, 1)" (name cu) lo mid hi );
           ( lo -. mid < 0.25,
             Printf.sprintf
               "%s speedup falls by < 0.25 from 1/8 to 1/2 (measured %.2f -> \
                %.2f)" (name cu) lo mid );
         ])
       curves)
