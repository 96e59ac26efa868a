(** Per-task port name spaces and the Table 3-2 operations.

    Tasks refer to ports by small-integer local names; rights
    (send/receive) are tracked per name. A space also owns the task's
    "default group of ports" for [msg_receive] ([port_enable] /
    [port_disable]). A name whose port has died is a dead name: it
    stays allocated until deallocated, but {!lookup} finds nothing and
    it holds no rights. Whoever must act on a death hooks the port
    ({!Port.on_death}); the space keeps no notices. *)

type t
type name = int

type status = {
  st_queued : int;  (** messages waiting *)
  st_backlog : int;
  st_has_receive : bool;
  st_enabled : bool;
}

val create : Context.t -> home:int -> t
val context : t -> Context.t

(** {2 Allocation and rights} *)

val allocate : t -> ?backlog:int -> unit -> name
(** [port_allocate]: new port; the space holds both receive and send
    rights. *)

val insert : t -> Message.port -> Message.right -> name
(** Record a right obtained from a message or another kernel interface.
    Rights to the same port coalesce onto one name. Inserting a receive
    right moves the port's home to this space's host. *)

val deallocate : t -> name -> unit
(** [port_deallocate]: drop this space's rights. Dropping the receive
    right destroys the port, which runs its death hooks. Unknown names
    raise [Invalid_argument]. *)

val lookup : t -> name -> Message.port option
(** [None] if the name is unknown, deallocated or dead. *)

val lookup_exn : t -> name -> Message.port

val name_of : t -> Message.port -> name option
val has_receive : t -> name -> bool
val has_send : t -> name -> bool

(** {2 Default receive group} *)

val enable : t -> name -> unit
(** [port_enable]: requires the receive right. *)

val disable : t -> name -> unit
val enabled : t -> name list
(** Sorted by name. *)

val status : t -> name -> status option
(** [port_status]. *)

val set_backlog : t -> name -> int -> unit
(** [port_set_backlog]: requires the receive right. *)

(** {2 Receive-any support (transport use)} *)

val activity : t -> Mach_sim.Waitq.t
(** Signalled (one waiter, not broadcast) whenever a message arrives on
    an enabled port. *)

val pop_ready : t -> (name * Message.port) option
(** Pop the oldest enabled port with queued messages off the ready FIFO
    maintained by the arrival hooks — O(1) amortized, no scan of the
    enabled set. Stale entries (message already consumed, port disabled
    or dead) are validated and discarded here. [None] means no enabled
    port has messages. *)

val requeue_ready : t -> name -> unit
(** Put [name] back on the ready FIFO if it still has queued messages
    (call after consuming one message of several). *)

val destroy : t -> unit
(** Tear down the space: deallocates every name (destroying ports whose
    receive right lives here) — task termination. *)
