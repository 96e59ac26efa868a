module Engine = Mach_sim.Engine
module Net = Mach_hw.Net

(* --- reliable channels ---------------------------------------------------

   Every remote delivery rides a per-(src,dst) sequenced channel:
   packets carry (epoch, seq), the receiver holds out-of-order arrivals
   until the gap fills (FIFO resequencing), drops anything it has
   already seen (dedup), and acks cumulatively. The sender retransmits
   everything unacked (go-back-N) under exponential backoff;
   [retry_budget] consecutive silent rounds declare the channel down,
   after which sends fail fast until a heal/restart resets the link
   with a higher epoch. *)

let seq_header_bytes = 16
let ack_bytes = 16
let retry_budget = 10

type packet = {
  pk_seq : int;
  pk_bytes : int;  (* payload bytes, excluding the sequence header *)
  pk_thunk : unit -> unit;
  pk_drop : unit -> unit;  (* releases what the payload holds when the packet is shed *)
  mutable pk_settled : bool;
      (* delivered or shed: exactly one of [pk_thunk] and [pk_drop] runs *)
}

type chan_tx = {
  tx_src : int;
  tx_dst : int;
  mutable tx_epoch : int;
  mutable tx_next : int;
  tx_unacked : packet Queue.t;
      (* oldest first; always the contiguous range of seqs below tx_next
         not yet covered by a cumulative ack *)
  mutable tx_strikes : int;
  mutable tx_timer : Engine.timer;  (* armed while packets are unacked *)
  mutable tx_down : bool;
}

type chan_rx = {
  mutable rx_epoch : int;
  mutable rx_next : int;
  rx_hold : (int, packet) Hashtbl.t;
}

module Counters = Mach_util.Metrics.Counters

let chan_counters = Counters.layout ()
let chan_stat = Counters.declare chan_counters
let s_data_pkts = chan_stat "data_pkts"
let s_acks = chan_stat "acks"
let s_retransmits = chan_stat "retransmits"
let s_dup_dropped = chan_stat "dup_dropped"
let s_resequenced = chan_stat "resequenced"
let s_aborts = chan_stat "aborts"
let s_resets = chan_stat "resets"
let s_stale_epoch = chan_stat "stale_epoch"

type t = {
  engine : Mach_sim.Engine.t;
  net : Net.t;
  mutable next_id : int;
  deliveries : (int, (unit -> unit) Queue.t) Hashtbl.t;
      (* Remote deliveries for one destination host drain in arrival
         order through a single daemon thread: a burst of sends queues
         work instead of forking a thread per message. *)
  txs : (int * int, chan_tx) Hashtbl.t;
  rxs : (int * int, chan_rx) Hashtbl.t;
  cstats : Counters.t;
  ports : (int, (unit -> int) * (unit -> unit)) Hashtbl.t;
      (* port id -> (home getter, destroyer): lets a host crash find and
         kill every port homed there without knowing message types *)
}

let create engine net =
  {
    engine;
    net;
    next_id = 1;
    deliveries = Hashtbl.create 8;
    txs = Hashtbl.create 8;
    rxs = Hashtbl.create 8;
    cstats = Counters.create chan_counters;
    ports = Hashtbl.create 64;
  }

let engine t = t.engine
let net t = t.net

let fresh_id t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  id

let spawn_daemon t ~dst q =
  Engine.spawn t.engine ~name:("net-delivery-h" ^ string_of_int dst) (fun () ->
      let rec loop () =
        match Queue.take_opt q with
        | Some thunk ->
          thunk ();
          loop ()
        | None ->
          (* Idle: exit so the engine can quiesce; the next delivery
             respawns us. No blocking point separates the emptiness
             check from the removal, so no thunk can slip in between. *)
          Hashtbl.remove t.deliveries dst
      in
      loop ())

(* Hand a delivery thunk to host [dst]'s delivery daemon (spawned
   lazily, exits when idle). Thunks run in arrival order and may block
   (e.g. on a full port queue); this call never blocks, so it is safe
   from network-completion callbacks. *)
let deliver_to t ~dst thunk =
  match Hashtbl.find_opt t.deliveries dst with
  | Some q -> Queue.push thunk q
  | None ->
    let q = Queue.create () in
    Queue.push thunk q;
    Hashtbl.replace t.deliveries dst q;
    spawn_daemon t ~dst q

let delivery_backlog t ~dst =
  match Hashtbl.find_opt t.deliveries dst with None -> 0 | Some q -> Queue.length q

(* --- channel plumbing ---------------------------------------------------- *)

let tx_chan t ~src ~dst =
  match Hashtbl.find_opt t.txs (src, dst) with
  | Some c -> c
  | None ->
    let c =
      {
        tx_src = src;
        tx_dst = dst;
        tx_epoch = 1;
        tx_next = 1;
        tx_unacked = Queue.create ();
        tx_strikes = 0;
        tx_timer = Engine.no_timer;
        tx_down = false;
      }
    in
    Hashtbl.replace t.txs (src, dst) c;
    c

let rx_chan t ~src ~dst =
  match Hashtbl.find_opt t.rxs (src, dst) with
  | Some c -> c
  | None ->
    let c = { rx_epoch = 0; rx_next = 1; rx_hold = Hashtbl.create 16 } in
    Hashtbl.replace t.rxs (src, dst) c;
    c

(* Give up on every unacked packet: one the receiver has not taken
   (lost, or held behind a gap) is never delivered, so its drop thunk
   releases what its payload holds — out-of-line exports, for one. *)
let shed chan =
  Queue.iter
    (fun pk ->
      if not pk.pk_settled then begin
        pk.pk_settled <- true;
        pk.pk_drop ()
      end)
    chan.tx_unacked;
  Queue.clear chan.tx_unacked

(* Retransmission timeout: current link queueing both ways, plus a
   round trip with slack for the largest packet still in flight,
   doubled per silent round, capped. The backlog term matters: the
   wire serializes per link, so under sustained traffic an ack is
   delayed by every transmission queued ahead of it — a timeout blind
   to that reads congestion as loss and the retransmissions feed the
   very queue that is delaying the acks. *)
let rto t chan =
  let max_bytes = Queue.fold (fun acc pk -> max acc pk.pk_bytes) 0 chan.tx_unacked in
  let base =
    Net.backlog_us t.net ~src:chan.tx_src ~dst:chan.tx_dst
    +. Net.backlog_us t.net ~src:chan.tx_dst ~dst:chan.tx_src
    +. (4.0 *. Net.latency_us t.net)
    +. (2.0 *. Net.us_per_byte t.net *. float_of_int (max_bytes + seq_header_bytes))
    +. 500.0
  in
  let scale = float_of_int (1 lsl min chan.tx_strikes 4) in
  base *. scale

let rec handle_ack t ~src ~dst ~epoch ~cum =
  match Hashtbl.find_opt t.txs (src, dst) with
  | None -> ()
  | Some chan ->
    if epoch <> chan.tx_epoch then Counters.incr t.cstats s_stale_epoch
    else begin
      (* Acks are cumulative and the window is contiguous: the acked
         packets are a prefix of the queue. *)
      let progress = ref false in
      while
        match Queue.peek_opt chan.tx_unacked with
        | Some pk -> pk.pk_seq <= cum
        | None -> false
      do
        ignore (Queue.pop chan.tx_unacked);
        progress := true
      done;
      if !progress then begin
        chan.tx_strikes <- 0;
        (* The watchdog measures silence since the peer's last progress,
           not time since the window opened: restart it for the packets
           still outstanding (their deadline was set for an older,
           shorter queue), or disarm it when the window drained. *)
        if Queue.is_empty chan.tx_unacked then Engine.cancel t.engine chan.tx_timer
        else arm_timer t chan
      end
    end

and rx_ingest t ~src ~dst ~epoch pk =
  let seq = pk.pk_seq in
  let chan = rx_chan t ~src ~dst in
  if epoch < chan.rx_epoch then Counters.incr t.cstats s_stale_epoch
  else begin
    if epoch > chan.rx_epoch then begin
      (* Peer reset the link (heal, restart): adopt the new epoch and
         forget everything buffered from the old one. *)
      if chan.rx_epoch > 0 then Counters.incr t.cstats s_resets;
      chan.rx_epoch <- epoch;
      chan.rx_next <- 1;
      Hashtbl.reset chan.rx_hold
    end;
    if seq < chan.rx_next || Hashtbl.mem chan.rx_hold seq then
      Counters.incr t.cstats s_dup_dropped
    else begin
      if seq <> chan.rx_next then Counters.incr t.cstats s_resequenced;
      Hashtbl.replace chan.rx_hold seq pk;
      let continue = ref true in
      while !continue do
        match Hashtbl.find_opt chan.rx_hold chan.rx_next with
        | None -> continue := false
        | Some pk ->
          Hashtbl.remove chan.rx_hold chan.rx_next;
          chan.rx_next <- chan.rx_next + 1;
          (* A packet its sender already shed was released there. *)
          if not pk.pk_settled then begin
            pk.pk_settled <- true;
            deliver_to t ~dst pk.pk_thunk
          end
      done
    end;
    (* Always ack, even for duplicates: a lost ack is indistinguishable
       from a lost packet, and the re-ack is what stops the retransmit. *)
    Counters.incr t.cstats s_acks;
    let cum = chan.rx_next - 1 in
    Net.deliver t.net ~src:dst ~dst:src ~bytes:ack_bytes (fun () ->
        handle_ack t ~src ~dst ~epoch ~cum)
  end

and transmit t chan pk =
  let epoch = chan.tx_epoch in
  let src = chan.tx_src and dst = chan.tx_dst in
  Net.deliver t.net ~src ~dst ~bytes:(pk.pk_bytes + seq_header_bytes) (fun () ->
      rx_ingest t ~src ~dst ~epoch pk)

(* Every path that drains the window or downs the channel cancels the
   timer, so a timer that fires has unacked packets to retransmit. *)
and arm_timer t chan =
  Engine.cancel t.engine chan.tx_timer;
  chan.tx_timer <-
    Engine.timer t.engine
      ~at:(Engine.now t.engine +. rto t chan)
      (fun () ->
        chan.tx_strikes <- chan.tx_strikes + 1;
        if chan.tx_strikes > retry_budget then begin
          (* Watchdog: the peer has been silent through the whole retry
             budget — declare the channel down and shed its queue.
             Subsequent sends fail fast with [`Unreachable]. *)
          chan.tx_down <- true;
          shed chan;
          Counters.incr t.cstats s_aborts
        end
        else begin
          Queue.iter
            (fun pk ->
              Counters.incr t.cstats s_retransmits;
              Net.note_retransmit t.net;
              transmit t chan pk)
            chan.tx_unacked;
          arm_timer t chan
        end)

let remote_deliver t ~src ~dst ~bytes ~drop thunk =
  let chan = tx_chan t ~src ~dst in
  if chan.tx_down then Error `Unreachable
  else begin
    let pk =
      { pk_seq = chan.tx_next; pk_bytes = bytes; pk_thunk = thunk; pk_drop = drop;
        pk_settled = false }
    in
    chan.tx_next <- chan.tx_next + 1;
    Queue.push pk chan.tx_unacked;
    Counters.incr t.cstats s_data_pkts;
    transmit t chan pk;
    if Queue.length chan.tx_unacked = 1 then arm_timer t chan;
    Ok ()
  end

let chan_down t ~src ~dst =
  match Hashtbl.find_opt t.txs (src, dst) with Some c -> c.tx_down | None -> false

let reset_tx t chan =
  chan.tx_epoch <- chan.tx_epoch + 1;
  chan.tx_next <- 1;
  shed chan;
  chan.tx_strikes <- 0;
  Engine.cancel t.engine chan.tx_timer;
  chan.tx_down <- false;
  Counters.incr t.cstats s_resets

(* Heal semantics: a direction that survived the partition (watchdog
   never tripped) still holds its unacked packets — leave it alone and
   let the next retransmit round carry them across. Only a downed
   direction needs the epoch-bump reset. *)
let reset_link t a b =
  List.iter
    (fun key ->
      match Hashtbl.find_opt t.txs key with
      | Some chan when chan.tx_down -> reset_tx t chan
      | Some _ | None -> ())
    [ (a, b); (b, a) ]

(* --- port registry & host failure --------------------------------------- *)

let register_port t ~id ~home ~destroy = Hashtbl.replace t.ports id (home, destroy)
let forget_port t ~id = Hashtbl.remove t.ports id
let live_ports t = Hashtbl.length t.ports

let reset_host_chans t ~host =
  let touches (src, dst) = src = host || dst = host in
  (* In (src, dst) order, not hash order: [shed] runs drop thunks. *)
  Hashtbl.fold (fun key chan acc -> if touches key then (key, chan) :: acc else acc) t.txs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, chan) -> reset_tx t chan);
  let stale = Hashtbl.fold (fun key _ acc -> if touches key then key :: acc else acc) t.rxs [] in
  List.iter
    (fun key ->
      let c = Hashtbl.find t.rxs key in
      (* The crashed side lost its receive state; the surviving side
         will adopt the peer's next epoch on first contact. *)
      Hashtbl.reset c.rx_hold;
      Hashtbl.remove t.rxs key)
    stale

let crash_host t ~host =
  (* Snapshot first: destroying a port runs death hooks that may create
     or destroy further ports. May block (death hooks charge compute),
     so only call from a simulated thread. *)
  let victims =
    Hashtbl.fold (fun id (home, destroy) acc ->
        if home () = host then (id, destroy) :: acc else acc)
      t.ports []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (id, destroy) ->
      Hashtbl.remove t.ports id;
      destroy ())
    victims;
  reset_host_chans t ~host;
  List.length victims

let restart_host t ~host = reset_host_chans t ~host

let chan_stats t = t.cstats
