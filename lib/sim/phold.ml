(* See phold.mli. Randomness is a pure hash of event content so that the
   committed execution is identical for every scheduler count. *)

let hash a b c d =
  (* 64-bit mix (splitmix-style), folded to 30 bits *)
  let m = 0x2545F4914F6CDD1D in
  let h = ref ((a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (c * 0xC2B2AE3D)
               lxor (d * 0x27D4EB2F)) in
  h := (!h lxor (!h lsr 33)) * m;
  h := (!h lxor (!h lsr 29)) * m;
  (!h lxor (!h lsr 32)) land 0x3FFFFFFF

let app ?(object_words = 8) ?(max_delay = 20) ?(compute = 200)
    ?(locality_pct = 0) ~objects ~seed () =
  if objects <= 0 then invalid_arg "Phold.app: objects must be positive";
  if object_words < 4 then invalid_arg "Phold.app: need at least 4 words";
  if locality_pct < 0 || locality_pct > 100 then
    invalid_arg "Phold.app: locality_pct must be a percentage";
  {
    Scheduler.n_objects = objects;
    object_words;
    init_word = (fun ~obj ~word -> if word = 0 then obj else 0);
    handle =
      (fun ctx ~payload ->
        ctx.Scheduler.compute compute;
        (* state update: an event counter, a payload checksum and a
           rolling mix over a few words *)
        let count = ctx.Scheduler.read 1 in
        ctx.Scheduler.write 1 (count + 1);
        let sum = ctx.Scheduler.read 2 in
        ctx.Scheduler.write 2 ((sum + payload) land 0xFFFFFFF);
        let mix = ctx.Scheduler.read 3 in
        ctx.Scheduler.write 3
          (hash mix payload ctx.Scheduler.now ctx.Scheduler.self
           land 0xFFFFFFF);
        (* forward the token *)
        let h =
          hash seed ctx.Scheduler.self payload ctx.Scheduler.now
        in
        (* spatial locality: most events stay on their object *)
        let dst =
          if h / 7 mod 100 < locality_pct then ctx.Scheduler.self
          else h mod objects
        in
        let delay = 1 + (h / objects mod max_delay) in
        let payload' = hash h payload 1 2 land 0xFFFF in
        ctx.Scheduler.send ~dst ~delay ~payload:payload')
  }

let population ~objects ~population ~seed =
  List.init population (fun i ->
      let h = hash seed i 17 23 in
      (1 + (h mod 10), h / 16 mod objects, h land 0xFFFF))

let inject_population engine ~objects ~population:n ~seed =
  List.iter
    (fun (time, dst, payload) -> Timewarp.inject engine ~time ~dst ~payload)
    (population ~objects ~population:n ~seed)
