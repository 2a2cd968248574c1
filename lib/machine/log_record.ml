type t = {
  addr : int;
  value : int;
  size : int;
  timestamp : int;
  pre_image : bool;
}

let bytes = 16
let pre_image_flag = 0x100

(* Four little-endian words: address, value, flags, timestamp. *)
let value_offset = 4
let flags_offset = 8
let flags_size flags = flags land 0xFF
let flags_pre_image flags = flags land pre_image_flag <> 0

let encode_bytes buf ~pos t =
  Bytes.set_int32_le buf pos (Int32.of_int (t.addr land 0xFFFFFFFF));
  Bytes.set_int32_le buf (pos + value_offset)
    (Int32.of_int (t.value land 0xFFFFFFFF));
  Bytes.set_int32_le buf (pos + flags_offset)
    (Int32.of_int
       ((t.size land 0xFF) lor (if t.pre_image then pre_image_flag else 0)));
  Bytes.set_int32_le buf (pos + 12) (Int32.of_int (t.timestamp land 0xFFFFFFFF))

let decode_bytes buf ~pos =
  let word off = Int32.to_int (Bytes.get_int32_le buf (pos + off)) land 0xFFFFFFFF in
  let flags = word flags_offset in
  { addr = word 0; value = word value_offset; size = flags_size flags;
    timestamp = word 12; pre_image = flags_pre_image flags }

let scratch = Bytes.create bytes

let encode_to mem ~paddr t =
  encode_bytes scratch ~pos:0 t;
  Physmem.blit_of_bytes mem scratch ~pos:0 ~dst:paddr ~len:bytes

let decode_from mem ~paddr =
  Physmem.blit_to_bytes mem ~src:paddr scratch ~pos:0 ~len:bytes;
  decode_bytes scratch ~pos:0

let value_bytes t =
  let b = Bytes.create t.size in
  (match t.size with
  | 1 -> Bytes.set_uint8 b 0 (t.value land 0xFF)
  | 2 -> Bytes.set_uint16_le b 0 (t.value land 0xFFFF)
  | _ -> Bytes.set_int32_le b 0 (Int32.of_int t.value));
  b

let equal a b =
  a.addr = b.addr && a.value = b.value && a.size = b.size
  && a.timestamp = b.timestamp && a.pre_image = b.pre_image

let pp ppf t =
  Format.fprintf ppf "{addr=0x%x value=0x%x size=%d ts=%d%s}" t.addr t.value
    t.size t.timestamp (if t.pre_image then " pre" else "")

(* {1 The versioned record codec}

   V0 is the seed wire format above: bare 16-byte records back to back.
   V1 is a self-framing variable-length format: every record starts with
   a tag word naming its kind, so a stream can mix compact encodings and
   still be walked without out-of-band metadata. A V1 stream opens with
   an 8-byte version record (tag + magic) — the on-disk version tag that
   lets a reader tell the formats apart and keeps old logs recoverable. *)

type version = V0 | V1

let version_to_string = function V0 -> "v0" | V1 -> "v1"

module Codec = struct
  (* Tag word layout (word 0 of every V1 record):
     bits 0..2   kind (0 raw, 1 run, 2 delta, 3 version, 4 pad)
     bit  3      pre-image flag
     bits 4..6   access size in bytes (1, 2 or 4)
     bits 8..31  kind-specific argument:
       run      value count (2..255), bits 8..15
       delta    word index within the 64-byte line, bits 8..11
       version  format version number, bits 8..15
       pad      total pad length in bytes, bits 8..23 *)

  let kind_raw = 0
  let kind_run = 1
  let kind_delta = 2
  let kind_version = 3
  let kind_pad = 4

  let magic = 0x4C564331 (* "LVC1" *)
  let header_bytes = 8
  let max_run = 255
  let line_bytes = 64

  (* Worst case a pad record has to burn before a fresh page: the emitter
     splits runs at page boundaries, so the largest unit that must fit
     whole is a 16-byte raw record plus the 4-byte pad tag itself. *)
  let max_pad_bytes = 20

  let tag ~kind ~size ~pre_image ~arg =
    kind lor (if pre_image then 8 else 0) lor ((size land 7) lsl 4)
    lor (arg lsl 8)

  let tag_kind w = w land 7
  let tag_pre w = w land 8 <> 0
  let tag_size w = (w lsr 4) land 7
  let tag_arg w = (w lsr 8) land 0xFFFFFF

  let get32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF
  let set32 b pos v = Bytes.set_int32_le b pos (Int32.of_int v)

  (* Upper bound on the encoded size of [writes] logical records,
     including the stream header and page-boundary pads — the planning
     figure for log-room reservation while records sit in the coalescing
     buffer. *)
  let worst_case_bytes ~writes =
    let raw = writes * bytes in
    header_bytes + raw + (max_pad_bytes * ((raw / Addr.page_size) + 2))

  (* {2 Grouping}

     The encoder works in groups, each one physical record: a run of
     sequential same-page word writes sharing a timestamp, a word-diff
     against the previous logical record's cache line, or a lone raw
     record. Groups never reference anything outside the batch, and a
     delta only ever names the logical record immediately before it, so
     append-ordered streams decode with one record of look-behind. *)

  type group =
    | G_raw of t
    | G_run of t list (* >= 2, sequential word addrs, same page, same ts *)
    | G_delta of t (* same 64-byte line as the previous logical record *)

  let group_records (g : group) =
    match g with G_raw r -> [ r ] | G_run rs -> rs | G_delta r -> [ r ]

  let runnable (r : t) = r.size = 4 && not r.pre_image

  let extends_run (prev : t) (r : t) =
    runnable r && r.addr = prev.addr + 4 && r.timestamp = prev.timestamp
    && Addr.page_number r.addr = Addr.page_number prev.addr

  let delta_of (prev : t) (r : t) =
    runnable r && r.timestamp = prev.timestamp
    && r.addr / line_bytes = prev.addr / line_bytes

  let group_batch records =
    let rec go groups prev = function
      | [] -> List.rev groups
      | r :: rest when not (runnable r) -> go (G_raw r :: groups) (Some r) rest
      | r :: rest ->
        (* collect the longest run starting at [r] *)
        let rec run acc last = function
          | x :: more
            when extends_run last x && List.length acc < max_run ->
            run (x :: acc) x more
          | more -> (List.rev acc, last, more)
        in
        let members, last, rest' = run [ r ] r rest in
        if List.length members >= 2 then
          go (G_run members :: groups) (Some last) rest'
        else begin
          match prev with
          | Some p when delta_of p r -> go (G_delta r :: groups) (Some r) rest
          | Some _ | None -> go (G_raw r :: groups) (Some r) rest
        end
    in
    go [] None records

  (* {2 Physical record encoding} *)

  let group_bytes = function
    | G_raw _ -> bytes
    | G_run rs -> 12 + (4 * List.length rs)
    | G_delta _ -> 8

  let encode_group g =
    let b = Bytes.create (group_bytes g) in
    (match g with
    | G_raw r ->
      set32 b 0
        (tag ~kind:kind_raw ~size:r.size ~pre_image:r.pre_image ~arg:0);
      set32 b 4 (r.addr land 0xFFFFFFFF);
      set32 b 8 (r.value land 0xFFFFFFFF);
      set32 b 12 (r.timestamp land 0xFFFFFFFF)
    | G_run rs ->
      let first = List.hd rs in
      set32 b 0
        (tag ~kind:kind_run ~size:4 ~pre_image:false ~arg:(List.length rs));
      set32 b 4 (first.addr land 0xFFFFFFFF);
      set32 b 8 (first.timestamp land 0xFFFFFFFF);
      List.iteri (fun i r -> set32 b (12 + (4 * i)) (r.value land 0xFFFFFFFF)) rs
    | G_delta r ->
      let widx = Addr.page_offset r.addr mod line_bytes / 4 in
      set32 b 0 (tag ~kind:kind_delta ~size:4 ~pre_image:false ~arg:widx);
      set32 b 4 (r.value land 0xFFFFFFFF));
    b

  let encode_version_header () =
    let b = Bytes.create header_bytes in
    set32 b 0 (tag ~kind:kind_version ~size:0 ~pre_image:false ~arg:1);
    set32 b 4 magic;
    b

  let encode_pad ~len =
    if len < 4 || len mod 4 <> 0 then invalid_arg "Codec.encode_pad";
    let b = Bytes.make len '\000' in
    set32 b 0 (tag ~kind:kind_pad ~size:0 ~pre_image:false ~arg:len);
    b

  (* Encode a whole batch into one contiguous stream fragment (no page
     constraints — the WAL payload / compaction shape). *)
  let encode_fragment records =
    let groups = group_batch records in
    let len = List.fold_left (fun a g -> a + group_bytes g) 0 groups in
    let b = Bytes.create len in
    let pos = ref 0 in
    List.iter
      (fun g ->
        let e = encode_group g in
        Bytes.blit e 0 b !pos (Bytes.length e);
        pos := !pos + Bytes.length e)
      groups;
    b

  (* A fresh stream: version header, then the fragment. *)
  let encode_stream records =
    Bytes.cat (encode_version_header ()) (encode_fragment records)

  (* {2 Decoding}

     [scan] walks a V1 stream fragment, calling [f ~off ~next records]
     once per physical record ([records] is empty for version and pad
     records) and returning the byte offset of the first record that does
     not parse — the torn-tail truncation point. The walk fail-stops: a
     short tail, a bad kind, a run count under 2 or a delta with no
     predecessor all end the scan without raising. *)

  let physical_length b ~pos ~len w =
    let need n = if pos + n <= len then Some n else None in
    match tag_kind w with
    | k when k = kind_raw -> need bytes
    | k when k = kind_run ->
      let n = tag_arg w land 0xFF in
      if n < 2 then None else need (12 + (4 * n))
    | k when k = kind_delta -> need 8
    | k when k = kind_version -> need header_bytes
    | k when k = kind_pad ->
      let l = tag_arg w in
      if l < 4 || l mod 4 <> 0 then None else need l
    | _ -> ignore b; None

  let scan ?prev b ~pos ~len ~f =
    let prev = ref prev in
    let rec go pos =
      if pos >= len then pos
      else if len - pos < 4 then pos
      else
        let w = get32 b pos in
        match physical_length b ~pos ~len w with
        | None -> pos
        | Some plen ->
          let next = pos + plen in
          let records =
            match tag_kind w with
            | k when k = kind_raw ->
              Some
                [ { addr = get32 b (pos + 4); value = get32 b (pos + 8);
                    size = tag_size w; timestamp = get32 b (pos + 12);
                    pre_image = tag_pre w } ]
            | k when k = kind_run ->
              let n = tag_arg w land 0xFF in
              let addr = get32 b (pos + 4) in
              let ts = get32 b (pos + 8) in
              Some
                (List.init n (fun i ->
                     { addr = addr + (4 * i); value = get32 b (pos + 12 + (4 * i));
                       size = 4; timestamp = ts; pre_image = false }))
            | k when k = kind_delta -> (
              match !prev with
              | None -> None (* dangling diff: unreadable, fail-stop *)
              | Some (p : t) ->
                let widx = tag_arg w land 0xF in
                Some
                  [ { addr = (p.addr / line_bytes * line_bytes) + (4 * widx);
                      value = get32 b (pos + 4); size = 4;
                      timestamp = p.timestamp; pre_image = false } ])
            | k when k = kind_version || k = kind_pad -> Some []
            | _ -> None
          in
          (match records with
          | None -> pos
          | Some rs ->
            (match rs with [] -> () | _ -> prev := Some (List.nth rs (List.length rs - 1)));
            f ~off:pos ~next rs;
            go next)
    in
    go pos

  (* Decode every logical record of a fragment; [valid_end] < [len] means
     the tail was torn. *)
  let decode_fragment ?prev b ~pos ~len =
    let acc = ref [] in
    let valid_end =
      scan ?prev b ~pos ~len ~f:(fun ~off:_ ~next:_ rs ->
          List.iter (fun r -> acc := r :: !acc) rs)
    in
    (List.rev !acc, valid_end)

  (* Does the stream open with a V1 version record? The probe requires
     both the version tag word and the magic, so a V0 stream — whose
     first word is an arbitrary data address — is never misread. *)
  let starts_with_header b ~pos ~len =
    len - pos >= header_bytes
    && tag_kind (get32 b pos) = kind_version
    && tag_arg (get32 b pos) land 0xFF = 1
    && get32 b (pos + 4) = magic

  let sniff_version b ~pos ~len =
    if starts_with_header b ~pos ~len then V1 else V0
end
