(** Bounded blocking message queues.

    These are the substrate for IPC port queues: a port is "a finite
    length queue for messages protected by the kernel" (§3.2), and
    [port_set_backlog] maps to the mailbox capacity. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] bounds the number of queued messages; unbounded when
    omitted. *)

val capacity : 'a t -> int option
val set_capacity : 'a t -> int option -> unit
val length : 'a t -> int

val send : 'a t -> 'a -> unit
(** Enqueue, blocking while the mailbox is full. *)

val send_timeout : 'a t -> 'a -> timeout:float -> bool
(** Like {!send} but gives up after [timeout] simulated microseconds,
    returning [false]. A zero timeout is a non-blocking try-send. A
    receiver that admits the message (or a {!close}) cancels the
    timeout, so a send that ends early leaves no timer queued. *)

val recv : 'a t -> 'a
(** Dequeue, blocking while the mailbox is empty. *)

val recv_timeout : 'a t -> timeout:float -> 'a option
(** Like {!recv} but gives up after [timeout] simulated microseconds,
    returning [None]. A sender that delivers (or a {!close}) cancels
    the timeout, so a receive that ends early leaves no timer queued. *)

val try_recv : 'a t -> 'a option

val waiters : 'a t -> int
(** Number of threads blocked in [recv]. *)

exception Closed

val close : drop:('a -> unit) -> 'a t -> unit
(** Close the mailbox: queued messages are dropped (each passed to
    [drop], once the waiters are woken), blocked receivers and senders
    are woken with {!Closed}, and all future operations raise {!Closed}
    (except [close] itself, which is idempotent).
    A destroyed IPC port closes its queue this way so blocked receivers
    learn of the death instead of waiting forever. *)

