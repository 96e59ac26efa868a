(** Processor scheduler: per-CPU run queues over the discrete-event
    engine.

    One [t] models the processors of one simulated host. A thread
    occupies a processor for a *tenure*: one or more {!compute} bursts,
    each sliced into quanta and preempted at slice boundaries when the
    run queue is contended. Placement is soft-affine (a thread prefers
    the processor it last ran on), idle processors are taken directly,
    and a processor going idle steals the oldest waiter from the
    longest run queue — so no processor idles while a thread is
    runnable.

    Run-queue dispatches (including preemption resumes) charge the
    configured context-switch time to the incoming thread; acquiring an
    idle processor is free.

    Tenure rule: a tenure that paid a context switch keeps its
    processor across back-to-back bursts until it has run one
    context-switch time — switching away sooner costs more than the
    work it interleaves. Only blocking ends it early: the processor is
    released at the instant the holder blocks (by the next acquire of
    any other thread on the host, or by an event armed for that
    instant), so a blocked thread never keeps a CPU while others wait.
    After the paid time, and for every tenure that began for free (an
    idle processor or a handoff claim), the processor goes back to the
    run queues at the end of each burst. Free tenures do not hold: they
    paid nothing, and a held sender would queue the receiver its next
    handoff wakes.

    Handoff scheduling: a send burst run with {!compute_donating} ends
    by reserving its own processor for a blocked-receiver IPC
    beneficiary instead of dispatching the run queue, so donation works
    on a saturated host too. {!claim_handoff} (from the receive path)
    binds the reservation to the woken thread, whose next {!compute}
    then enters with no run-queue round trip and no context-switch
    charge. Unclaimed reservations expire after one context-switch
    window, handed-back ones ({!cancel_handoff}) at once, and the
    processor is re-dispatched. *)

type t

val create :
  Engine.t -> cpus:int -> ?quantum_us:float -> context_switch_us:float -> unit -> t
(** [quantum_us] defaults to 10ms of simulated time. *)

val compute : t -> float -> unit
(** Occupy one processor for the given number of simulated
    microseconds (plus any queueing delay and context-switch charges).
    Must be called from inside a simulated thread; bursts of zero or
    negative length return immediately. The processor is held for the
    thread's next burst or re-dispatched by the tenure rule above. *)

val compute_donating : t -> float -> donate_if:(unit -> bool) -> int option
(** {!compute}, except that at the end of the burst [donate_if ()] is
    asked — at that instant, with nothing interleaved — whether to
    reserve the processor the burst ran on for a handoff instead of
    ending as {!compute} does. Returns the reservation's ticket for
    {!claim_handoff}, or [None] (no donation; zero-length bursts
    occupy no processor and never donate). *)

val cancel_handoff : t -> ticket:int -> unit
(** Hand a live reservation back: the processor is re-dispatched at
    once instead of idling out its window (counted in
    [handoff_expired]). Claimed-and-entered or unknown tickets are
    ignored. *)

val claim_handoff : t -> ticket:int -> name:string -> unit
(** Bind a live reservation to thread [name]; its next {!compute}
    enters on the donated processor without queueing or switch charge.
    Expired or unknown tickets are ignored. *)

val cpu_count : t -> int
val stats : t -> Mach_util.Metrics.Counters.t
(** The host's [reg.sched.*] counters (declared in [sched.ml]):
    dispatches, preemptions, migrations, steals, handoffs, run-queue
    depth, and an idle-with-waiter oracle that stays 0. *)

val set_trace : t -> Trace.t option -> unit
(** Wire the host's trace: acquire entries ([enter_direct] /
    [enter_queued] / [enter_handoff] / [hold]), preemptions and
    donations emit "sched" points attributed to the computing fiber's
    current span. *)

val running_cpu : t -> string -> int option
(** The processor a named thread currently occupies, if any — the
    trace's CPU-stamping hook. *)

val busy_us : t -> float
(** Total processor-busy time accumulated across all CPUs (compute
    slices plus charged context switches). Utilisation over a window of
    elapsed time [e] on [n] CPUs is [busy_us / (n * e)]. *)

val queued : t -> int
(** Threads currently waiting on run queues. *)

val forget : t -> string -> unit
(** Drop a finished thread's home CPU, so the affinity table holds only
    names that may run again. *)

val affinity_entries : t -> int
(** Thread names with a home CPU. *)

val idle_cpus : t -> int
