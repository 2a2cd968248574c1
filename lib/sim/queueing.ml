let queue_len_word = 1
let busy_word = 2
let served_word = 3
let checksum_word = 4

let arrival = 0
let service = 1
let kind payload = payload lsr 16
let customer payload = payload land 0xFFFF
let payload ~kind:k ~customer:c = (k lsl 16) lor (c land 0xFFFF)

let app ~stations ~seed =
  if stations <= 0 then invalid_arg "Queueing.app: stations";
  {
    Scheduler.n_objects = stations;
    object_words = 6;
    init_word = (fun ~obj ~word -> if word = 0 then obj else 0);
    handle =
      (fun ctx ~payload:p ->
        ctx.Scheduler.compute 150;
        let self = ctx.Scheduler.self in
        let now = ctx.Scheduler.now in
        let cust = customer p in
        let service_time c =
          1 + (Phold.hash seed self c now mod 12)
        in
        if kind p = arrival then begin
          if ctx.Scheduler.read busy_word = 0 then begin
            ctx.Scheduler.write busy_word 1;
            ctx.Scheduler.send ~dst:self ~delay:(service_time cust)
              ~payload:(payload ~kind:service ~customer:cust)
          end
          else
            ctx.Scheduler.write queue_len_word
              (ctx.Scheduler.read queue_len_word + 1)
        end
        else begin
          (* service completion: account, forward the customer, start the
             next one if the queue is non-empty *)
          ctx.Scheduler.write served_word
            (ctx.Scheduler.read served_word + 1);
          ctx.Scheduler.write checksum_word
            (Phold.hash (ctx.Scheduler.read checksum_word) self cust now
             land 0xFFFFFF);
          let next = (self + 1) mod stations in
          ctx.Scheduler.send ~dst:next
            ~delay:(1 + (Phold.hash seed next cust now mod 4))
            ~payload:(payload ~kind:arrival ~customer:cust);
          let q = ctx.Scheduler.read queue_len_word in
          if q > 0 then begin
            ctx.Scheduler.write queue_len_word (q - 1);
            (* the next customer's identity is content-derived *)
            let c' = Phold.hash self cust now q land 0xFFFF in
            ctx.Scheduler.send ~dst:self ~delay:(service_time c')
              ~payload:(payload ~kind:service ~customer:c')
          end
          else ctx.Scheduler.write busy_word 0
        end);
  }

let arrivals ~stations ~customers ~seed =
  List.init customers (fun c ->
      let h = Phold.hash seed c 3 5 in
      (1 + (h mod 8), h / 8 mod stations, payload ~kind:arrival ~customer:c))

let inject_customers engine ~stations ~customers ~seed =
  List.iter
    (fun (time, dst, payload) -> Timewarp.inject engine ~time ~dst ~payload)
    (arrivals ~stations ~customers ~seed)

let sum_word engine ~stations ~word =
  let total = ref 0 in
  for s = 0 to stations - 1 do
    total := !total + Timewarp.read_state engine ~obj:s ~word
  done;
  !total

let total_served engine ~stations = sum_word engine ~stations ~word:served_word

let customers_present engine ~stations =
  sum_word engine ~stations ~word:queue_len_word
  + sum_word engine ~stations ~word:busy_word
