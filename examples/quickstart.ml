(* Quickstart: the paper's Section 2.2 example, in OCaml.

   Create a segment, map it through a region, attach a log segment, and
   watch the hardware log every write. Run with:

     dune exec examples/quickstart.exe *)

let () =
  (* Boot a machine and its VM kernel. *)
  let k = Lvm.Api.create Lvm.Api.Config.default in
  let space = Lvm.Api.address_space k in

  (* Segment * seg_a = new StdSegment(size);
     Region * reg_r = new StdRegion(seg_a); *)
  let seg_a = Lvm.Api.std_segment k ~size:8192 in
  let reg_r = Lvm.Api.std_region k seg_a in

  (* LogSegment * ls = new LogSegment();
     reg_r->log(ls); *)
  let ls = Lvm.Api.log_segment k in
  Lvm.Api.log k reg_r ls;

  (* reg_r->bind(as); *)
  let base = Lvm.Api.bind k space reg_r in
  Printf.printf "logged region bound at 0x%x\n" base;

  (* Ordinary stores; the logger records each one off the critical path. *)
  Lvm.Api.write_word k space ~vaddr:(base + 0x10) 42;
  Lvm.Api.write_word k space ~vaddr:(base + 0x20) 1995;
  Lvm.Api.write_word k space ~vaddr:(base + 0x10) 43;

  Printf.printf "data: [0x10]=%d [0x20]=%d\n"
    (Lvm.Api.read_word k space ~vaddr:(base + 0x10))
    (Lvm.Api.read_word k space ~vaddr:(base + 0x20));

  (* Read the log back: one 16-byte record per write, in order. *)
  Printf.printf "log has %d records:\n" (Lvm.Log_reader.record_count k ls);
  Lvm.Log_reader.iter_in k ls ~seg:seg_a ~f:(fun ~rec_off:_ ~off r ->
      Printf.printf "  t=%-6d seg+0x%-4x <- %d\n"
        r.Lvm_machine.Log_record.timestamp off r.Lvm_machine.Log_record.value);

  (* Logging costs almost nothing on the writing processor: *)
  let t0 = Lvm.Api.time k in
  Lvm.Api.write_word k space ~vaddr:(base + 0x30) 7;
  Printf.printf "a logged write cost the CPU %d cycles\n"
    (Lvm.Api.time k - t0)
