(** Figure 8: effect of the number of writes on LVM performance.

    Speedup versus the fraction of the object written per event, for the
    paper's four curves (s,c) ∈ {(32,256), (64,512), (128,1024),
    (256,2048)}. The paper finds the speedup decreases only slowly as the
    fraction grows — copy-based saving is independent of the number of
    writes while LVM pays one write-through per write — with the drop
    becoming significant only as the fraction approaches one.

    Target: on every curve the speedups at fractions 1/8, 1/2 and 1 do not
    rise (allowing 0.02 from 1/2 to 1), and fall by less than 0.25 from
    1/8 to 1/2. *)

val run : Format.formatter -> Report.outcome
