(** Condition-variable-style wait queues.

    Threads wait for a state change guarded by the caller's own
    predicate; broadcasting wakes every waiter to re-check. The VM layer
    uses these for "page busy" waits in the fault handler. *)

type t

val create : unit -> t

val wait : t -> unit
(** Block until the next {!broadcast} or {!signal}. *)

val wait_timeout : t -> timeout:float -> bool
(** [true] if woken by a signal, [false] on timeout. The wake cancels
    the timeout, so a wait that ends early leaves no timer queued. *)

val signal : t -> unit
(** Wake at most one waiter. *)

val broadcast : t -> unit
(** Wake all current waiters. *)

