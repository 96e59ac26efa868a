(** Kernel port objects.

    "A port is a communication channel. Logically, a port is a finite
    length queue for messages protected by the kernel. A port may have
    any number of senders but only one receiver." (§3.2)

    The type is polymorphic in the message payload so that {!Message}
    (which itself contains ports) can instantiate it recursively. *)

type 'msg t

val create : Context.t -> home:int -> ?backlog:int -> drop:('msg -> unit) -> unit -> 'msg t
(** [home] is the host id where the receive right lives; [backlog]
    bounds the queue (default 32, matching a small kernel queue).
    [destroy] passes each message still queued to [drop], which
    releases what it holds ({!Message.discard}). *)

val id : 'msg t -> int
(** Globally unique within the context; stable identity for hashing. *)

val context : 'msg t -> Context.t
val home : 'msg t -> int
val set_home : 'msg t -> int -> unit
(** Receive-right migration (used when a task with a receive right is
    migrated between hosts). *)

val alive : 'msg t -> bool

val backlog : 'msg t -> int
val set_backlog : 'msg t -> int -> unit
(** Table 3-2's [port_set_backlog]. *)

val queued : 'msg t -> int
(** Messages currently waiting. *)

val queue : 'msg t -> 'msg Mach_sim.Mailbox.t
(** The underlying mailbox (transport use only). *)

val destroy : 'msg t -> unit
(** Destroy the port (receive right death): drops queued messages
    through the port's [drop], then runs death hooks. Idempotent. *)

val on_death : 'msg t -> (unit -> unit) -> unit
(** Register a callback run at {!destroy}, after those registered
    before it. Fires immediately if the port is already dead. *)

val on_arrival : 'msg t -> (unit -> unit) -> int
(** Register a callback run whenever a message is enqueued (used by
    port-set receive). *)

val cancel_on_arrival : 'msg t -> int -> unit

val notify_arrival : 'msg t -> unit
(** Transport use only: fire arrival hooks. *)

val equal : 'msg t -> 'msg t -> bool
val compare : 'msg t -> 'msg t -> int
val pp : Format.formatter -> 'msg t -> unit
