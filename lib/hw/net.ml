module Engine = Mach_sim.Engine
module Chaos = Mach_sim.Chaos

type t = {
  engine : Engine.t;
  latency_us : float;
  us_per_byte : float;
  mutable messages : int;
  mutable bytes : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable retransmits : int;
  mutable chaos : Chaos.t option;
  channels : (int * int, float ref) Hashtbl.t;
      (* per-(src,dst) link serialization: transmissions queue FIFO, so a
         small message cannot overtake a large one sent earlier (the
         netmsg server serializes per connection) *)
}

let create engine ?(latency_us = 300.0) ?(us_per_byte = 0.8) () =
  {
    engine;
    latency_us;
    us_per_byte;
    messages = 0;
    bytes = 0;
    dropped = 0;
    duplicated = 0;
    retransmits = 0;
    chaos = None;
    channels = Hashtbl.create 16;
  }

let set_chaos t c = t.chaos <- c
let chaos t = t.chaos

let channel t ~src ~dst =
  match Hashtbl.find_opt t.channels (src, dst) with
  | Some r -> r
  | None ->
    let r = ref 0.0 in
    Hashtbl.replace t.channels (src, dst) r;
    r

(* Absolute arrival time for a message sent now: transmission occupies
   the channel serially, propagation latency pipelines. *)
let arrival_time t ~src ~dst ~bytes =
  let now = Engine.now t.engine in
  if src = dst then now
  else begin
    let busy = channel t ~src ~dst in
    let xmit_done = Float.max now !busy +. (float_of_int bytes *. t.us_per_byte) in
    busy := xmit_done;
    xmit_done +. t.latency_us
  end

let latency_us t = t.latency_us
let us_per_byte t = t.us_per_byte

(* Queueing delay a message sent now would see before its own
   transmission starts: how far ahead of the clock the link's
   serializer already is. *)
let backlog_us t ~src ~dst =
  if src = dst then 0.0
  else
    match Hashtbl.find_opt t.channels (src, dst) with
    | None -> 0.0
    | Some busy -> Float.max 0.0 (!busy -. Engine.now t.engine)

let transit_us t ~src ~dst ~bytes =
  if src = dst then 0.0 else t.latency_us +. (float_of_int bytes *. t.us_per_byte)

let count t ~src ~dst ~bytes =
  if src <> dst then begin
    t.messages <- t.messages + 1;
    t.bytes <- t.bytes + bytes
  end

let deliver t ~src ~dst ~bytes callback =
  count t ~src ~dst ~bytes;
  if src = dst then callback ()
  else begin
    (* The wire is occupied whether or not the message survives: compute
       the arrival first so drops still serialize behind earlier traffic. *)
    let at = arrival_time t ~src ~dst ~bytes in
    match t.chaos with
    | None -> Engine.schedule t.engine ~at callback
    | Some c -> (
      match Chaos.judge c ~src ~dst with
      | Chaos.Dropped _ -> t.dropped <- t.dropped + 1
      | Chaos.Deliver { copies; extra_delay_us } ->
        Engine.schedule t.engine ~at:(at +. extra_delay_us) callback;
        (* A duplicate takes another trip down the wire: it lands one
           full transit later than the original. *)
        for _ = 2 to copies do
          t.duplicated <- t.duplicated + 1;
          Engine.schedule t.engine
            ~at:(at +. extra_delay_us +. transit_us t ~src ~dst ~bytes)
            callback
        done)
  end

let note_retransmit t = t.retransmits <- t.retransmits + 1
let messages t = t.messages
let bytes_carried t = t.bytes
let dropped t = t.dropped
let duplicated t = t.duplicated
let retransmits t = t.retransmits

let stats_to_list t =
  [
    ("messages", t.messages);
    ("bytes_carried", t.bytes);
    ("dropped", t.dropped);
    ("duplicated", t.duplicated);
    ("retransmits", t.retransmits);
  ]
