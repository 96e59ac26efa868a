(** Processor accounting: compute bursts run on the host's scheduler
    ({!Mach_sim.Sched}) — a 16-CPU MultiMax runs 16 bursts in parallel;
    a VAX 11/780 runs one at a time, with run-queue waits, quantum
    preemption and context-switch charges in between. *)

val syscall_overhead_us : float
(** Flat kernel-entry cost charged by every Table 3-2/3-3 operation. *)

val compute : Ktypes.kernel -> float -> unit
(** Occupy one CPU for the given number of simulated microseconds. *)
