(** The primitive message operations of Table 3-1: [msg_send],
    [msg_receive], [msg_rpc].

    Cost model (charged in simulated time to the calling thread):
    - a fixed per-message software overhead ([msg_overhead_us]);
    - inline ([Data]) bytes cost a physical copy (derived from the
      machine's page-copy rate);
    - out-of-line ([Ool]) payloads carried in the message cost
      one map operation per page — the duality's win for large
      messages; [Ool_copy] handles cost nothing here (copyin charged
      its map ops already, copyout/fault pay theirs lazily);
    - cross-host destinations add network transit (latency + wire
      bytes / BW — copy-object pages do not transit); the sender does
      not wait for remote queueing. *)

(** Per-host IPC counters, reported as [reg.ipc.*]: one block hangs off
    the node shared by a host's kernel context and tasks. *)
val ipc_counters : Mach_util.Metrics.Counters.layout

val s_copyins : Mach_util.Metrics.Counters.id
(** [vm_map_copyin] snapshots taken (counted by [Vm_map]). *)

val s_lazy_copyout_faults : Mach_util.Metrics.Counters.id
(** Faults materializing lazily copied-out pages (counted by [Fault]). *)

type node = {
  node_host : int;  (** host id of the calling task *)
  node_params : Mach_hw.Machine.params;
  node_page_size : int;
  node_stats : Mach_util.Metrics.Counters.t;  (** a block of {!ipc_counters} *)
  node_sched : Mach_sim.Sched.t;
      (** the host's processor scheduler: send/receive CPU costs contend
          for processors through it, and a local fast-path send ends
          its send burst by reserving the processor it ran on for the
          receiver ({!Mach_sim.Sched.compute_donating}) instead of
          dispatching the run queue (handoff scheduling). With
          [node_params.handoff = false], local fast-path sends neither
          donate a processor nor mark the message, so every receive
          pays the full context-switch charge. *)
  node_trace : Mach_sim.Trace.t;
      (** when enabled, {!send} stamps the sender's current span id
          into the header (unless already stamped) and emits "ipc"
          [send]/[send_remote] points; receives emit
          [recv]/[recv_handoff] points attributed to the carried
          span. *)
}

type send_error =
  | Send_invalid_port  (** destination is dead *)
  | Send_timed_out  (** queue stayed full past the timeout *)

type recv_error =
  | Recv_timed_out
  | Recv_invalid_port  (** no receive right / port dead with empty queue *)

val fastpath_inline_bytes : int
(** Largest inline payload eligible for the direct-handoff fast path
    (delivered straight to a blocked receiver, skipping the arrival
    notification). Copy-object handles ([Ool_copy]) do not disqualify
    a message; [Ool] payloads carried in it do. *)

val send :
  node -> ?timeout:float -> Message.t -> (unit, send_error) result
(** Blocks while the destination queue is full (unless [timeout],
    in microseconds, is given; [timeout] = 0 is a non-blocking try).
    A local fast-path send donates its processor at the end of its
    send burst; if the delivery then fails, the processor is handed
    back at once. Remote destinations enqueue through the destination
    host's single delivery daemon (one thread per host, not per
    message). *)

val receive :
  node ->
  Port_space.t ->
  from:[ `Port of Port_space.name | `Any ] ->
  ?timeout:float ->
  unit ->
  (Message.t, recv_error) result
(** [`Any] receives from the space's enabled default group (§3.2,
    [port_enable]) in message-arrival order via the ready-port FIFO —
    O(1) per receive, no scan of the enabled set. Port capabilities
    carried in the message are inserted into the receiving space. *)

val rpc :
  node ->
  Port_space.t ->
  Message.t ->
  (Message.t, [ `Send of send_error | `Recv of recv_error ]) result
(** [msg_rpc]: send, then receive on the message's reply port (which
    must be present and held with receive rights in [space]). *)

val send_cost_us : node -> Message.t -> float
(** The simulated CPU cost {!send} would charge (excluding queueing and
    network time) — exposed for the E3 bench. *)
