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

type fiber
(** A simulated thread, as the thread itself: state that other layers
    keep per thread lives on it. *)

val self : unit -> fiber
(** The calling simulated thread. Raises [Invalid_argument] outside a
    thread. *)

val self_opt : unit -> fiber option
(** Like {!self}, but [None] when called outside a simulated thread
    (e.g. from a {!schedule} timer callback) instead of raising. *)

val fiber_name : fiber -> string

val spans : fiber -> int list
val set_spans : fiber -> int list -> unit
(** The fiber's open {!Trace} spans, innermost first; empty at spawn. *)

val cpu : fiber -> int
val set_cpu : fiber -> int -> unit
(** The processor the fiber occupies on its host's {!Sched}; [-1] (the
    value at spawn) when it occupies none. *)

val home : fiber -> int
val set_home : fiber -> int -> unit
(** The processor the fiber last ran on, which {!Sched} prefers for its
    next burst; [-1] (the value at spawn) before its first burst. *)

val donated : fiber -> bool
val set_donated : fiber -> bool -> unit
(** Whether the fiber's last {!Sched} burst ended by donating its
    processor for a handoff: it gave the processor away and has
    computed nothing since. [false] at spawn; {!Sched} keeps it. *)

type owner = ..
(** What a fiber runs for. The layer that spawns a fiber for one of its
    own records extends this type with that record and sets it, so the
    record is found from {!self} without a table. *)

val owner : fiber -> owner
val set_owner : fiber -> owner -> unit
(** A fiber starts with an owner that no other module can name. *)

val sleep : float -> unit
(** Block the calling thread for the given number of simulated
    microseconds. Must be called from inside a thread. When nothing
    queued is due at or before the wake, the clock advances in place:
    the order of events and {!events_run} are as if the wake had been
    queued, but it never counts towards {!pending}. *)

(** {2 Internal plumbing for synchronisation primitives} *)

type 'a waiter
(** A blocked thread and its optional timeout: the one wait every
    synchronisation primitive ({!Waitq}, {!Mailbox}, {!Ivar},
    {!Semaphore}, {!Sched}'s run queues) is built on. *)

val block : ?timeout:float * 'a -> ('a waiter -> unit) -> 'a
(** [block ?timeout register] blocks the calling thread until {!wake};
    [register] receives the waiter and files it where a waker will find
    it (it may also wake it at once). [timeout = (delay, v)] arms a
    timer, only if the waiter is still waiting after [register], that
    wakes it with [v] after [delay] simulated microseconds. *)

val wake : 'a waiter -> 'a -> unit
(** Resume the waiter with a value and cancel its timeout, so a wait
    that ends early leaves no timer queued. Only the first wake (or the
    timeout) counts; later ones do nothing. *)

val waiting : 'a waiter -> bool
(** [true] until the waiter is woken or times out. *)
