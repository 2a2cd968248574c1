open Lvm_machine
open Lvm_vm

type point = { dirty_kb : int; reset_kcycles : float; bcopy_kcycles : float }

type curve = {
  segment_kb : int;
  points : point list;
  crossover_fraction : float option;
}

let fractions = [ 0.0; 0.125; 0.25; 0.375; 0.5; 0.625; 0.75; 0.875; 1.0 ]

let kcycles c = float_of_int c /. 1000.

let measure segment_kb =
  let size = segment_kb * 1024 in
  let pages = size / Addr.page_size in
  let frames = max 4096 ((3 * pages) + 64) in
  let k = Kernel.create ~frames () in
  let sp = Kernel.create_space k in
  let working = Kernel.create_segment k ~size in
  let ckpt = Kernel.create_segment k ~size in
  Kernel.declare_source k ~dst:working ~src:ckpt ~offset:0;
  let region = Kernel.create_region k working in
  let base = Kernel.bind k sp region in
  (* measure bcopy of the whole segment once; it does not depend on how
     much is dirty *)
  let t0 = Kernel.time k in
  Machine.bcopy (Kernel.machine k)
    ~src:(Kernel.paddr_of k ckpt ~off:0)
    ~dst:(Kernel.paddr_of k working ~off:0)
    ~len:size;
  let bcopy_cycles = Kernel.time k - t0 in
  Kernel.reset_deferred_segment k working;
  let points =
    List.map
      (fun fraction ->
        let dirty_pages =
          int_of_float (Float.round (fraction *. float_of_int pages))
        in
        (* dirty the first [dirty_pages] pages with one write each *)
        for p = 0 to dirty_pages - 1 do
          Kernel.write_word k sp (base + (p * Addr.page_size)) p
        done;
        let t1 = Kernel.time k in
        Kernel.reset_deferred_copy k sp ~start:base ~len:size;
        let reset_cycles = Kernel.time k - t1 in
        {
          dirty_kb = dirty_pages * Addr.page_size / 1024;
          reset_kcycles = kcycles reset_cycles;
          bcopy_kcycles = kcycles bcopy_cycles;
        })
      fractions
  in
  (* linear interpolation of the reset-vs-bcopy crossover *)
  let crossover_fraction =
    let rec find = function
      | (f1, p1) :: ((f2, p2) :: _ as rest) ->
        if p1.reset_kcycles <= p1.bcopy_kcycles
           && p2.reset_kcycles > p2.bcopy_kcycles
        then
          let d1 = p1.bcopy_kcycles -. p1.reset_kcycles in
          let d2 = p2.reset_kcycles -. p2.bcopy_kcycles in
          Some (f1 +. ((f2 -. f1) *. d1 /. (d1 +. d2)))
        else find rest
      | _ -> None
    in
    find (List.combine fractions points)
  in
  { segment_kb; points; crossover_fraction }

let sizes_kb = [ 32; 512; 2048 ]

let run ppf =
  Report.section ppf "Figure 9: resetDeferredCopy vs bcopy";
  let curves = List.map measure sizes_kb in
  List.iter
    (fun curve ->
      Report.subsection ppf
        (Printf.sprintf "%d-kilobyte segment" curve.segment_kb);
      Report.table ppf
        ~header:[ "dirty KB"; "reset (kcycles)"; "bcopy (kcycles)" ]
        (List.map
           (fun p ->
             [
               Report.fi p.dirty_kb;
               Report.ff p.reset_kcycles;
               Report.ff p.bcopy_kcycles;
             ])
           curve.points);
      match curve.crossover_fraction with
      | Some f ->
        Format.fprintf ppf
          "crossover: reset wins below %.0f%% dirty (paper: ~67%%)@."
          (100. *. f)
      | None -> Format.fprintf ppf "no crossover in the sweep@.")
    curves;
  let crossover curve =
    let f = Option.value curve.crossover_fraction ~default:nan in
    ( f > 0.55 && f < 0.80,
      Printf.sprintf "%dKB crossover in (0.55, 0.80) (measured %.2f)"
        curve.segment_kb f )
  in
  let kb32 = List.hd curves in
  let at kb = List.find (fun p -> p.dirty_kb = kb) kb32.points in
  let p0 = at 0 and p8 = at 8 and p16 = at 16 and p32 = at 32 in
  let step = p16.reset_kcycles -. p8.reset_kcycles in
  Report.claims
    (Report.group "crossover band"
       (List.map crossover
          (List.filter (fun cu -> List.mem cu.segment_kb [ 32; 512 ]) curves))
    @ Report.group "reset linear"
        [
          ( p0.reset_kcycles < 0.5,
            Printf.sprintf
              "32KB reset at 0 dirty < 0.5 kcycles (measured %.2f)"
              p0.reset_kcycles );
          ( Report.within ~tolerance:0.15 ~paper:(p32.reset_kcycles /. 4.)
              step,
            Printf.sprintf
              "32KB reset grows linearly: 8->16 KB step within 15%% of %.2f \
               (measured %.2f)" (p32.reset_kcycles /. 4.) step );
          ( p0.bcopy_kcycles = p32.bcopy_kcycles,
            "32KB bcopy flat in dirty KB" );
        ])
