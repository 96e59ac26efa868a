(** Deterministic network fault injection.

    A [Chaos.t] is a seeded oracle consulted by the network fabric for
    every inter-host message: it can drop it, duplicate it, delay it
    past its successors (reorder), refuse it outright (link partition,
    crashed host). All randomness comes from one [Mach_util.Rng]
    stream, so a given seed and workload replays the exact same fault
    schedule. Every injected fault is counted and, when a trace is
    attached, emitted as a ["chaos"] trace point. *)

type plan = {
  drop : float;  (** probability a message disappears *)
  duplicate : float;  (** probability a message arrives twice *)
  reorder : float;  (** probability a message is delayed past its successors *)
  jitter_us : float;  (** max extra delay applied to reordered messages *)
}

val perfect : plan
(** No faults: every field 0. *)

type t

val create : ?seed:int -> unit -> t

val of_spec : string -> t
(** Parse a fault plan from a spec string, e.g.
    ["seed=7,drop=0.1,dup=0.05,reorder=0.1,jitter=500"]. Every key is
    optional; the plan becomes the default for all links. Raises
    [Invalid_argument] on unknown keys. *)

val set_trace : t -> Trace.t option -> unit

(** {1 Fault plans} *)

val set_default_plan : t -> plan -> unit
val plan_for : t -> src:int -> dst:int -> plan
(** The plan a message on the link is judged by: the default plan. *)

(** {1 Partitions and host failures} *)

val partition : t -> int -> int -> unit
(** Cut the (bidirectional) link between two hosts. *)

val heal : t -> int -> int -> unit
(** Restore a cut link and fire [on_heal] hooks. *)

val partitioned : t -> int -> int -> bool

val crash_host : t -> int -> unit
(** Take a host off the fabric and fire [on_crash] hooks. Hooks may
    destroy ports and run death callbacks that block, so call this
    from a simulated thread, never from an [Engine.schedule]
    callback. *)

val restart_host : t -> int -> unit
val host_up : t -> int -> bool

val on_crash : t -> (int -> unit) -> unit
val on_restart : t -> (int -> unit) -> unit
val on_heal : t -> (int -> int -> unit) -> unit

(** {1 The oracle} *)

type verdict =
  | Deliver of { copies : int; extra_delay_us : float }
  | Dropped of [ `Fault | `Partitioned | `Host_down ]

val judge : t -> src:int -> dst:int -> verdict
(** One verdict per fabric message; counts faults as a side effect. *)

(** {1 Accounting} *)

val stats : t -> Mach_util.Metrics.Counters.t
(** [reg.chaos.*]: a count of each kind of injected fault and of each
    partition, heal, crash and restart. *)

val faults_injected : t -> int
