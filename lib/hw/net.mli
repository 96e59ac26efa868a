(** Inter-host network fabric.

    Models the NORMA interconnect: point-to-point delivery with a fixed
    one-way latency plus a per-byte transfer cost. Intra-host "delivery"
    (src = dst) is free — the duality means local transfers go through
    memory instead.

    An attached {!Mach_sim.Chaos} oracle can drop, duplicate, or delay
    any inter-host message; intra-host delivery is never subject to
    chaos. *)

type t

val create : Mach_sim.Engine.t -> ?latency_us:float -> ?us_per_byte:float -> unit -> t

val set_chaos : t -> Mach_sim.Chaos.t option -> unit
val chaos : t -> Mach_sim.Chaos.t option

val latency_us : t -> float
val us_per_byte : t -> float

val backlog_us : t -> src:int -> dst:int -> float
(** Current queueing delay on the directed link: how long a message
    sent now waits behind earlier traffic before its own transmission
    starts. 0 when the link is idle or [src = dst]. The reliable
    channel layer folds this into its retransmission timeout so a
    congested (but healthy) link is not mistaken for a lossy one. *)

val deliver : t -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit
(** Schedule [callback] after the transit time; the caller does not
    block (the wire is asynchronous). The callback must not block.
    Under chaos the callback may fire twice (duplicate) or never
    (drop) — a reliability layer above must cope. The wire stays
    occupied for the transmission time even when the message is
    dropped. *)

(** {2 Statistics} *)

val note_retransmit : t -> unit
(** Credited by the reliable channel layer when it re-sends a packet. *)

val stats : t -> Mach_util.Metrics.Counters.t
(** [reg.net.*]: inter-host messages and the bytes they carried, the
    chaos drops and duplicates, and retransmissions. *)
