open Lvm_machine
open Lvm_vm

type kind = Indexed | Direct

type t = {
  k : Kernel.t;
  space : Address_space.t;
  kind : kind;
  seg : Segment.t;
  ls : Segment.t;
  base : int;
  size : int;
  mutable cursor : int; (* producer position, bytes *)
  mutable consumed : int; (* indexed mode: bytes already consumed *)
}

let create kind ?(log_pages = 16) k space ~size =
  let seg = Kernel.create_segment k ~size in
  let region = Kernel.create_region k seg in
  let mode, log_size =
    match kind with
    | Indexed -> (Logger.Indexed, log_pages * Addr.page_size)
    | Direct -> (Logger.Direct_mapped, Segment.size seg)
  in
  let ls = Kernel.create_log_segment ~mode k ~size:log_size in
  Kernel.set_region_log k region (Some ls);
  let base = Kernel.bind k space region in
  { k; space; kind; seg; ls; base; size; cursor = 0; consumed = 0 }

let create_indexed k space ~size ~log_pages =
  create Indexed ~log_pages k space ~size

let create_direct k space ~size = create Direct k space ~size

let emit_at t ~off v =
  if off < 0 || off + 4 > t.size then invalid_arg "Output_stream.emit_at";
  Kernel.write_word t.k t.space (t.base + off) v

let emit t v =
  emit_at t ~off:t.cursor v;
  t.cursor <- (t.cursor + Addr.word_size) mod t.size

let consume t =
  if t.kind <> Indexed then
    invalid_arg "Output_stream.consume: indexed mode only";
  Kernel.sync_log t.k t.ls;
  let available = Segment.write_pos t.ls in
  let values = ref [] in
  let off = ref t.consumed in
  while !off + Addr.word_size <= available do
    let paddr = Kernel.paddr_of t.k t.ls ~off:!off in
    values :=
      Physmem.read_word (Machine.mem (Kernel.machine t.k)) paddr :: !values;
    off := !off + Addr.word_size
  done;
  t.consumed <- !off;
  List.rev !values

let mirror_word t ~off =
  if t.kind <> Direct then
    invalid_arg "Output_stream.mirror_word: direct-mapped mode only";
  Kernel.sync_log t.k t.ls;
  Kernel.seg_read_raw t.k t.ls ~off ~size:4

module Envelope = struct
  let schema_version = 1

  type json =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of json list
    | Obj of (string * json) list
    | Raw of string

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int v -> Buffer.add_string b (string_of_int v)
    | Float v -> Buffer.add_string b (Printf.sprintf "%.4f" v)
    | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          write b v)
        vs;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (name, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_char b '"';
          Buffer.add_string b (escape name);
          Buffer.add_string b "\": ";
          write b v)
        fields;
      Buffer.add_char b '}'
    | Raw s -> Buffer.add_string b s

  let render ~kind fields =
    let b = Buffer.create 256 in
    write b
      (Obj
         (("schema_version", Int schema_version)
          :: ("kind", String kind) :: fields));
    Buffer.contents b

  let emit ~kind ppf fields =
    Format.fprintf ppf "%s@." (render ~kind fields)

  let print ppf fields =
    let rec line prefix (name, v) =
      match v with
      | Obj fields -> List.iter (line (prefix ^ name ^ ".")) fields
      | String s -> Format.fprintf ppf "%s%s %s@." prefix name s
      | v ->
        let b = Buffer.create 16 in
        write b v;
        Format.fprintf ppf "%s%s %s@." prefix name (Buffer.contents b)
    in
    List.iter (line "") fields
end
