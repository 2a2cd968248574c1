open Lvm_vm
open Lvm_consistency

type row = {
  writes : int;
  spread_pages : int;
  twin_release : int;
  log_release : int;
  snoop_release : int;
  twin_words : int;
  log_words : int;
}

let patterns =
  [ (1, 1); (4, 1); (16, 1); (64, 1); (4, 4); (16, 4); (64, 4); (256, 4);
    (1024, 4) ]

let one_pattern ~segment_kb ~writes ~spread_pages =
  let run protocol =
    let k = Kernel.create () in
    let sp = Kernel.create_space k in
    let t = Shared_segment.create k sp ~size:(segment_kb * 1024) protocol in
    Shared_segment.acquire t;
    for i = 0 to writes - 1 do
      let page = i mod spread_pages in
      let word = i / spread_pages mod (Lvm_machine.Addr.words_per_page - 1)
      in
      Shared_segment.write_word t
        ~off:((page * Lvm_machine.Addr.page_size) + (word * 4))
        (i + 1)
    done;
    let s = Shared_segment.release t in
    assert (Shared_segment.replica_consistent t);
    s
  in
  let twin = run Shared_segment.Twin_diff in
  let log = run Shared_segment.Log_based in
  let snoop = run Shared_segment.Snooped in
  {
    writes;
    spread_pages;
    twin_release = twin.Shared_segment.release_cycles;
    log_release = log.Shared_segment.release_cycles;
    snoop_release = snoop.Shared_segment.release_cycles;
    twin_words = twin.Shared_segment.words_sent;
    log_words = log.Shared_segment.words_sent;
  }

let measure () =
  List.map
    (fun (writes, spread_pages) ->
      one_pattern ~segment_kb:32 ~writes ~spread_pages)
    patterns

let run ppf =
  Report.section ppf
    "Ablation C: Log-based Consistency vs Munin Twin/Diff (Section 2.6)";
  let rows = measure () in
  Report.table ppf
    ~header:
      [ "writes"; "pages"; "twin/diff release"; "log-based release";
        "snooped release"; "twin words"; "log words" ]
    (List.map
       (fun r ->
         [
           Report.fi r.writes;
           Report.fi r.spread_pages;
           Report.fi r.twin_release;
           Report.fi r.log_release;
           Report.fi r.snoop_release;
           Report.fi r.twin_words;
           Report.fi r.log_words;
         ])
       rows);
  Report.note ppf
    "log-based consistency wins when updates are sparse relative to the \
     page; twin/diff catches up only when most of a page is rewritten \
     (it can even send fewer words when a location is overwritten \
     repeatedly, the tradeoff Section 2.6 notes). The snooped variant \
     (consistency from the logging bus traffic alone) makes release \
     almost free.";
  let sparse = List.hd rows and dense = List.nth rows (List.length rows - 1) in
  let ratio r = float_of_int r.log_release /. float_of_int r.twin_release in
  Report.claims
    [
      ( sparse.log_release * 4 < sparse.twin_release,
        Printf.sprintf
          "log-based release < 1/4 of twin/diff when sparse (measured %d vs \
           %d)" sparse.log_release sparse.twin_release );
      ( ratio dense > ratio sparse,
        Printf.sprintf
          "log/twin release ratio higher dense than sparse (measured %.2f vs \
           %.2f)" (ratio dense) (ratio sparse) );
    ]
