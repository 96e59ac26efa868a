(** Shared state of one simulated IPC universe: the event engine, the
    inter-host network, the id allocator, the per-destination
    remote-delivery daemons, and the reliable channel layer that gives
    remote delivery exactly-once effects over a lossy wire. Every port
    and port space belongs to exactly one context, so runs are
    deterministic and two simulations never interfere. *)

type t

val create : Mach_sim.Engine.t -> Mach_hw.Net.t -> t
val engine : t -> Mach_sim.Engine.t
val net : t -> Mach_hw.Net.t
val fresh_id : t -> int

val delivery_backlog : t -> dst:int -> int
(** Thunks queued for [dst]'s daemon (0 when no daemon is running). *)

(** {2 Reliable channels}

    Every remote delivery rides a per-(src,dst) sequenced channel,
    whether or not chaos is attached to the net: (epoch, seq) headers,
    receiver-side dedup + FIFO resequencing, cumulative acks, go-back-N
    retransmission under exponential backoff, and a watchdog that
    declares the channel down after 10 silent rounds so a partitioned
    peer surfaces as a clean send error instead of a hung thread. On a
    lossless wire the cost is a 16-byte header on each data packet and
    one 16-byte ack on the reverse link. *)

val remote_deliver :
  t -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> (unit, [ `Unreachable ]) result
(** Deliver [thunk] on host [dst], paying the wire cost of [bytes].
    Never blocks. [Error `Unreachable] means the channel to [dst] has
    exhausted its retry budget and is down; it stays down until
    {!reset_link} or {!restart_host}. *)

val chan_down : t -> src:int -> dst:int -> bool

val reset_link : t -> int -> int -> unit
(** Revive both directions of a link: bump the epoch, clear in-flight
    state, clear the down flag. Wired to [Chaos.on_heal]. *)

(** {2 Port registry and host failure} *)

val register_port : t -> id:int -> home:(unit -> int) -> destroy:(unit -> unit) -> unit
val forget_port : t -> id:int -> unit

val live_ports : t -> int
(** Ports created and not yet destroyed, on every host. *)

val crash_host : t -> host:int -> int
(** Kill a host: destroy every registered port homed there (running
    death hooks, which is how remote holders learn their proxies died)
    and reset every channel touching the host. Returns the number of
    ports destroyed. Death hooks may block, so call from a simulated
    thread, never from an [Engine.schedule] callback. *)

val restart_host : t -> host:int -> unit
(** Bring a crashed host's channels back: epoch bump + down-flag clear,
    so the first new contact resynchronizes both sides. *)

(** {2 Channel accounting} *)

val chan_stats : t -> Mach_util.Metrics.Counters.t
(** [reg.chan.*]: data packets, acks, retransmissions, duplicates
    dropped, out-of-order arrivals, aborts, resets and stale-epoch
    packets. *)
