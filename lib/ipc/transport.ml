module Engine = Mach_sim.Engine
module Sched = Mach_sim.Sched
module Trace = Mach_sim.Trace
module Mailbox = Mach_sim.Mailbox
module Waitq = Mach_sim.Waitq
module Machine = Mach_hw.Machine
module Net = Mach_hw.Net

module Counters = Mach_util.Metrics.Counters

let ipc_counters = Counters.layout ()
let ipc_stat = Counters.declare ipc_counters
let s_msgs_sent = ipc_stat "msgs_sent"
let s_bytes_copied = ipc_stat "bytes_copied" (* inline bytes copied at send *)
let s_bytes_mapped = ipc_stat "bytes_mapped" (* bytes moved by mapping (incl. copy objects) *)
let s_copyins = ipc_stat "copyins"
let s_lazy_copyout_faults = ipc_stat "lazy_copyout_faults"
let s_rpc_fastpath = ipc_stat "rpc_fastpath" (* sends handed directly to a blocked receiver *)

(* Receives completed via handoff: the blocked receiver was woken by a
   fast-path send that donated a processor to it, so
   [sched.handoff_claims / handoffs] is the share of donations the
   receivers used. *)
let s_handoffs = ipc_stat "handoffs"
let s_spurious_wakeups = ipc_stat "spurious_wakeups" (* receive-any wakeups with no ready port *)

type node = {
  node_host : int;
  node_params : Machine.params;
  node_page_size : int;
  node_stats : Counters.t;
  node_sched : Sched.t;
  node_trace : Trace.t;
}

(* Stamp an outgoing message with the sender's causal span (unless a
   layer above stamped it already) and mark the send; the receive side
   adopts the id, so one span threads a fault through its pager RPC. *)
let trace_send node msg ~local =
  let hdr = msg.Message.header in
  if hdr.Message.trace_span < 0 then hdr.Message.trace_span <- Trace.current node.node_trace;
  Trace.point node.node_trace ~span:hdr.Message.trace_span ~subsystem:"ipc"
    (if local then "send" else "send_remote")

type send_error = Send_invalid_port | Send_timed_out
type recv_error = Recv_timed_out | Recv_invalid_port

let pages_of node bytes = (bytes + node.node_page_size - 1) / node.node_page_size

(* Small inline messages can hand off directly to a blocked receiver;
   past this size the normal queue path wins nothing by special-casing. *)
let fastpath_inline_bytes = 256

let send_cost_us node msg =
  let p = node.node_params in
  let copy_us_per_byte = p.Machine.page_copy_us /. float_of_int node.node_page_size in
  let inline = Message.inline_bytes msg in
  (* Only regions whose payload still travels with the message are
     mapped here; [Ool_copy] handles were charged at copyin and pay
     their map ops lazily at copyout/fault time. *)
  let carried_pages = pages_of node (Message.carried_mapped_bytes msg) in
  p.Machine.msg_overhead_us
  +. (float_of_int inline *. copy_us_per_byte)
  +. (float_of_int carried_pages *. p.Machine.map_op_us)

(* Copy-object handles travel as 16 bytes, so only payloads carried in
   the message keep it off the fast path. *)
let is_fastpath_candidate msg =
  Message.carried_mapped_bytes msg = 0
  && Message.inline_bytes msg <= fastpath_inline_bytes

(* RPC fast path: a receiver is already blocked on this port and the
   message is small with nothing carried out of line. *)
let fastpath_ready port msg =
  Mailbox.waiters (Port.queue port) > 0 && is_fastpath_candidate msg

(* A processor reserved for a handoff that will not happen goes back to
   the run queues at once rather than idling out its window. *)
let give_back node = function
  | Some ticket -> Sched.cancel_handoff node.node_sched ~ticket
  | None -> ()

(* [handoff] is the header mark a fast-path delivery carries: the
   ticket of the processor the send burst reserved for the receiver.
   Deliveries without it (remote ones, the ablation arm) leave the
   receive its switch charge. *)
let enqueue_local node ?timeout ?handoff port msg =
  let stats = node.node_stats in
  let q = Port.queue port in
  (* Fast path: hand the message straight to the blocked receiver and
     skip the arrival notification (nothing is left queued, so waking
     the receive-any machinery would only cause spurious rescans). *)
  if fastpath_ready port msg then begin
    msg.Message.header.Message.handoff <- handoff;
    match Mailbox.send q msg with
    | () ->
      Counters.incr stats s_rpc_fastpath;
      Ok ()
    | exception Mailbox.Closed ->
      give_back node handoff;
      Error Send_invalid_port
  end
  else
    match
      match timeout with
      | None ->
        Mailbox.send q msg;
        true
      | Some t -> Mailbox.send_timeout q msg ~timeout:t
    with
    | true ->
      Port.notify_arrival port;
      Ok ()
    | false -> Error Send_timed_out
    | exception Mailbox.Closed -> Error Send_invalid_port

let send node ?timeout msg =
  let dest = msg.Message.header.dest in
  if not (Port.alive dest) then Error Send_invalid_port
  else begin
    let local = Port.home dest = node.node_host in
    let cost = send_cost_us node msg in
    (* Handoff scheduling: a local send that will wake a blocked receiver
       ends its burst by reserving its processor for that receiver, so
       the receiver enters without a run-queue round trip even when
       other threads are waiting for the CPU. Remote deliveries never
       donate: the daemon's processor belongs to the destination host. *)
    let ticket =
      Sched.compute_donating node.node_sched cost ~donate_if:(fun () ->
          local && node.node_params.Machine.handoff && fastpath_ready dest msg)
    in
    let stats = node.node_stats in
    Counters.incr stats s_msgs_sent;
    Counters.add stats s_bytes_copied (Message.inline_bytes msg);
    Counters.add stats s_bytes_mapped (Message.mapped_bytes msg);
    (* The port may have died while we were copying. *)
    if not (Port.alive dest) then begin
      give_back node ticket;
      Error Send_invalid_port
    end
    else if local then begin
      trace_send node msg ~local:true;
      enqueue_local node ?timeout ?handoff:ticket dest msg
    end
    else begin
      trace_send node msg ~local:false;
      (* Remote destination: hand the message to the network; the
         sender does not wait for remote queueing (netmsg-server
         style). Only [wire_bytes] transit — copy-object pages stay
         home and are paged over on demand. Queue-full blocking
         happens in the destination host's delivery daemon. *)
      let ctx = Port.context dest in
      let dst = Port.home dest in
      let bytes = Message.wire_bytes msg in
      match
        Context.remote_deliver ctx ~src:node.node_host ~dst ~bytes
          ~drop:(fun () -> Message.discard msg)
          (fun () ->
            (* A message that finds its port dead is never received. *)
            match enqueue_local node dest msg with Ok () -> () | Error _ -> Message.discard msg)
      with
      | Ok () -> Ok ()
      | Error `Unreachable ->
        (* The reliable channel exhausted its retry budget: the peer is
           partitioned or dead. Surface it as a timeout, the same error
           a full queue produces. *)
        Error Send_timed_out
    end
  end

let insert_caps space msg =
  List.iter
    (fun { Message.cap_port; cap_right } -> ignore (Port_space.insert space cap_port cap_right))
    (Message.caps msg)

(* A normal receive pays a context switch (block + redispatch) through
   the scheduler. A handoff receive pays nothing: the sender drove the
   wakeup and donated its processor — the receiver claims the
   reservation so its next compute burst starts on the donated CPU
   without touching a run queue. *)
let charge_receive node msg =
  let hdr = msg.Message.header in
  Trace.point node.node_trace ~span:hdr.Message.trace_span ~subsystem:"ipc"
    (if Option.is_some hdr.Message.handoff then "recv_handoff" else "recv");
  match hdr.Message.handoff with
  | Some ticket ->
    hdr.Message.handoff <- None;
    Counters.incr node.node_stats s_handoffs;
    Sched.claim_handoff node.node_sched ~ticket ~name:(Engine.self_name ())
  | None -> Sched.compute node.node_sched node.node_params.Machine.context_switch_us

let receive_one node space port ?timeout () =
  let result =
    match timeout with
    | None -> (
      match Mailbox.recv (Port.queue port) with
      | msg -> Ok msg
      | exception Mailbox.Closed -> Error Recv_invalid_port)
    | Some t -> (
      match Mailbox.recv_timeout (Port.queue port) ~timeout:t with
      | Some msg -> Ok msg
      | None -> if Port.alive port then Error Recv_timed_out else Error Recv_invalid_port
      | exception Mailbox.Closed -> Error Recv_invalid_port)
  in
  match result with
  | Ok msg ->
    charge_receive node msg;
    insert_caps space msg;
    Ok msg
  | Error e -> Error e

let receive_any node space ?timeout () =
  let engine = Context.engine (Port_space.context space) in
  let deadline = Option.map (fun t -> Engine.now engine +. t) timeout in
  (* O(1) receive: pop the oldest ready port off the FIFO the arrival
     hooks maintain — no scan of the enabled set. [after_wakeup] tracks
     whether this attempt follows a waitq wakeup so we can count
     wakeups that found nothing ready (targeted wakeups should make
     that count zero). *)
  let rec attempt ~after_wakeup =
    match Port_space.pop_ready space with
    | Some (name, port) -> (
      match Mailbox.try_recv (Port.queue port) with
      | Some msg ->
        (* More messages may be waiting behind this one. *)
        Port_space.requeue_ready space name;
        charge_receive node msg;
        insert_caps space msg;
        Ok msg
      | None | (exception Mailbox.Closed) ->
        (* pop_ready validated queued > 0 and nothing can run between
           that check and this dequeue, but stay defensive. *)
        attempt ~after_wakeup)
    | None ->
      if after_wakeup then Counters.incr node.node_stats s_spurious_wakeups;
      wait ()
  and wait () =
    match deadline with
    | None ->
      Waitq.wait (Port_space.activity space);
      attempt ~after_wakeup:true
    | Some d ->
      let remaining = d -. Engine.now engine in
      if remaining <= 0.0 then Error Recv_timed_out
      else if Waitq.wait_timeout (Port_space.activity space) ~timeout:remaining then
        attempt ~after_wakeup:true
      else Error Recv_timed_out
  in
  attempt ~after_wakeup:false

let receive node space ~from ?timeout () =
  match from with
  | `Any -> receive_any node space ?timeout ()
  | `Port name -> (
    if not (Port_space.has_receive space name) then Error Recv_invalid_port
    else
      match Port_space.lookup space name with
      | None -> Error Recv_invalid_port
      | Some port -> receive_one node space port ?timeout ())

let rpc node space msg =
  match msg.Message.header.reply with
  | None -> invalid_arg "Transport.rpc: message has no reply port"
  | Some reply_port -> (
    match Port_space.name_of space reply_port with
    | None -> invalid_arg "Transport.rpc: reply port not in caller's space"
    | Some reply_name -> (
      match send node msg with
      | Error e -> Error (`Send e)
      | Ok () -> (
        match receive node space ~from:(`Port reply_name) () with
        | Ok reply -> Ok reply
        | Error e -> Error (`Recv e))))
