(** The canned fault storm behind [machsim stat], [machsim trace] and
    the trace checks in the tests: one task touches every
    observability surface of the fault path.

    Three phases of [rounds] pages each, in order:
    - anonymous write faults that zero-fill fresh memory;
    - read refaults of the same pages after their pmap entries are
      evicted (soft faults: the pages are still resident);
    - read faults on a region backed by a prompt external manager,
      task ["file-mgr"], each riding IPC to it and back with a page
      of ['f'] bytes.

    The task is named ["storm"], so its faults and the manager's
    [pager.file-mgr.*] keys land under stable names in the registry. *)

val run : rounds:int -> traced:bool -> Mach.Kernel.system
(** [run ~rounds ~traced] boots a fresh single-host system, runs the
    storm to completion with the causal trace enabled iff [traced],
    and returns the system for reduction (its kernel's metrics and
    trace, its engine's clock). Tracing charges no simulated time, so
    the traced and untraced runs are identical in everything but the
    trace buffer.

    @raise Failure if the storm thread does not finish. *)
