(* Helpers shared by the test modules. *)

(* Bytes [f ()] allocates, read once. Under OCaml 5.1 a reading of
   [Gc.allocated_bytes] jumps by up to ~1.5 MB the call never allocated
   whenever a major collection cycle completes inside it, so the
   reading depends on where the GC cycle happens to stand. A full major
   collection just before starts a fresh cycle, which a call
   allocating a few hundred KiB cannot finish. *)
let allocated_bytes f =
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  let bytes = Gc.allocated_bytes () -. before in
  ignore (Sys.opaque_identity r);
  bytes
