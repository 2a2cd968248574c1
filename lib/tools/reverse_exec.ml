open Lvm_machine
open Lvm_vm

(* One write of the debuggee: the log offset of its record (of the
   container holding it, under V1), the byte offset it writes in the
   working segment (-1 for a write elsewhere), the record itself, and the
   offset and record of its pre-image when the hardware was recording
   old values (Section 4.6). *)
type write = {
  record_off : int;
  off : int;
  record : Log_record.t;
  pre_image : (int * Log_record.t) option;
}

type t = {
  k : Kernel.t;
  space : Address_space.t;
  working : Segment.t;
  region : Region.t;
  base : int;
  log : Segment.t;
  writes : write array;
  mutable position : int; (* writes applied *)
}

let index_writes k log ~working =
  let pending_pre = ref None in
  let acc = ref [] in
  Lvm.Log_reader.iter k log ~f:(fun ~off:record_off r ->
      if r.Log_record.pre_image then pending_pre := Some (record_off, r)
      else begin
        let off = Lvm.Log_reader.located k ~seg:working r in
        acc :=
          { record_off; off; record = r; pre_image = !pending_pre } :: !acc;
        pending_pre := None
      end);
  Array.of_list (List.rev !acc)

let create k ~space ~working ~region ~base ~log =
  Kernel.set_logging_enabled k region false;
  let writes = index_writes k log ~working in
  { k; space; working; region; base; log; writes;
    position = Array.length writes }

let length t = Array.length t.writes
let position t = t.position

(* Re-apply a logged value at write [w]'s offset: a timed read of the
   record at [record_off], then an unlogged store. The record was
   decoded at attach time, so each of a V1 container's records keeps its
   own value. *)
let apply t w ~record_off (r : Log_record.t) =
  Lvm.Log_reader.charge_read t.k t.log ~off:record_off ~len:Log_record.bytes;
  if w.off >= 0 then
    Machine.write (Kernel.machine t.k)
      ~paddr:(Kernel.paddr_of t.k t.working ~off:w.off)
      ~size:r.Log_record.size ~mode:Machine.Write_back ~logged:false
      r.Log_record.value

let redo t w = apply t w ~record_off:w.record_off w.record

let replay t ~writes =
  Kernel.reset_deferred_copy t.k t.space ~start:t.base
    ~len:(Region.size t.region);
  for i = 0 to writes - 1 do
    redo t t.writes.(i)
  done

let seek t n =
  if n < 0 || n > length t then invalid_arg "Reverse_exec.seek: out of range";
  if n <> t.position then begin
    (* seeking forward needs no reset; backward replays a shorter prefix
       unless every step has a pre-image to undo with *)
    if n > t.position then
      for i = t.position to n - 1 do
        redo t t.writes.(i)
      done
    else begin
      let undoable =
        let rec check i =
          i < n || (Option.is_some t.writes.(i).pre_image && check (i - 1))
        in
        check (t.position - 1)
      in
      if undoable then
        (* constant work per step: apply the recorded old values in
           reverse order (Section 4.6's reverse-execution payoff) *)
        for i = t.position - 1 downto n do
          let w = t.writes.(i) in
          match w.pre_image with
          | Some (pre_off, pre) -> apply t w ~record_off:pre_off pre
          | None -> assert false
        done
      else replay t ~writes:n
    end;
    t.position <- n
  end

let step_back t =
  if t.position = 0 then false
  else begin
    seek t (t.position - 1);
    true
  end

let step_forward t =
  if t.position = length t then false
  else begin
    seek t (t.position + 1);
    true
  end

let detach t =
  seek t (length t);
  Kernel.set_logging_enabled t.k t.region true

let record_at t i =
  if i < 0 || i >= length t then invalid_arg "Reverse_exec.record_at";
  t.writes.(i).record
