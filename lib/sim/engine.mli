(** Deterministic discrete-event simulation engine.

    Simulated threads are OCaml-5 effect-based coroutines: a thread is an
    ordinary function that may call the blocking operations of this module
    ({!sleep}) and of the synchronisation modules ({!Ivar}, {!Mailbox},
    {!Semaphore}, {!Waitq}). Blocking suspends the coroutine and registers
    a wake-up; the engine runs ready events in (time, sequence) order, so a
    run is fully deterministic.

    Simulated time is in microseconds (float). *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in microseconds: the time of the event
    running now or, between runs, of the last event that ran. A
    cancelled timer never runs, so its deadline never moves the clock.
    When {!run} [~until] stops at an event past [until], [now] reads
    [until]; when the queue drains first, it reads the last event's
    time. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] schedules a new simulated thread to start at the current
    time. May be called from inside or outside a running thread. An
    uncaught exception in [f] aborts the whole run ({!run} re-raises). *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Low-level: run a callback (not a coroutine — it must not block) at the
    given absolute time. *)

type timer
(** A scheduled callback that can be withdrawn before it runs. *)

val timer : t -> at:float -> (unit -> unit) -> timer
(** Like {!schedule}, and return a handle for {!cancel}. The callback
    keeps its place in (time, sequence) order. *)

val cancel : t -> timer -> unit
(** Remove the timer from the queue now, in O(log n): its callback
    never runs. Cancelling a timer that already ran or was already
    cancelled does nothing. *)

val no_timer : timer
(** A timer that never runs; cancelling it does nothing. Fills a timer
    field before the real timer is armed. *)

val pending : t -> int
(** Events in the queue: ready threads, sleeps and armed timers. *)

val peak_pending : t -> int
(** The longest the queue has been. *)

val events_run : t -> int
(** Events run so far; cancelled timers are not counted. *)

val run : ?until:float -> t -> unit
(** Execute events until the queue is empty or simulated time would exceed
    [until]. Returns normally on quiescence; re-raises the first exception
    escaping a thread. *)

val live : t -> int
(** Number of spawned threads that have not yet finished. If [run]
    returned and [live t > 0], those threads are blocked forever —
    a deadlock or a wait on an external wake-up that never came. *)

val blocked_names : t -> string list
(** Names of currently-suspended threads (diagnostic, sorted). A thread
    asleep past {!run}'s [until] is one. *)

val self_name : unit -> string
(** Name of the calling simulated thread. Raises [Invalid_argument]
    outside a thread. *)

val self_name_opt : unit -> string option
(** Like {!self_name}, but [None] when called outside a simulated
    thread (e.g. from a {!schedule} timer callback) instead of
    raising. *)

val sleep : float -> unit
(** Block the calling thread for the given number of simulated
    microseconds. Must be called from inside a thread. When nothing
    queued is due at or before the wake, the clock advances in place:
    the order of events and {!events_run} are as if the wake had been
    queued, but it never counts towards {!pending}. *)

(** {2 Internal plumbing for synchronisation primitives} *)

type 'a resumer = 'a -> unit
(** Resuming schedules the suspended thread at the current simulated time.
    Must be called at most once. *)

val suspend : (t -> 'a resumer -> unit) -> 'a
(** [suspend register] blocks the calling thread; [register] receives the
    engine and a one-shot resumer. *)
