(** Counting semaphores over the simulation engine.

    Used for CPU slots (a host with [n] processors is a semaphore of
    [n] permits around compute bursts) and for the kernel's reserved
    memory pool accounting (§6.2.3). *)

type t

val create : int -> t
(** [create permits]; [permits >= 0]. *)

val acquire : ?n:int -> t -> unit
(** Take [n] (default 1) permits, blocking until available. Permits are
    granted FIFO, a single large request cannot be starved by a stream of
    small ones. *)

val try_acquire : ?n:int -> t -> bool
val release : ?n:int -> t -> unit

val with_permit : t -> (unit -> 'a) -> 'a
(** Acquire one permit around a callback, releasing on exception too. *)
