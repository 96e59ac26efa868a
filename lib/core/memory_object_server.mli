(** Host for user-level data managers.

    A data manager implements a memory object by receiving the kernel's
    Table 3-5 calls and replying with the Table 3-6 calls. This module
    is the receive loop every user-level manager shares: {!serve} runs a
    {!Mach_vm.Pager_runtime} policy on a manager task, and the runtime
    decodes each call and sends each reply. A well-behaved pager and one
    that misbehaves on purpose (never answers, never releases, floods)
    differ only in their policy. Create memory objects with
    {!create_memory_object}, register them with the runtime, and hand
    them to clients. Policy callbacks run on the manager task's service
    threads and may block (e.g. on disk I/O); use multiple manager tasks
    or threads for deadlock-sensitive services (§6.1).

    {v
      Memory_object_server   (receive loop, notify thread running deaths)
             |
        Pager_runtime        (decoding, registry, death hooks, splitting,
             |                coalescing, stats)
        policy module        (backing-store read/write + consistency)
    v} *)

open Mach_kernel.Ktypes

type t

val serve :
  ?service_threads:int ->
  ?on_other:('o Mach_vm.Pager_runtime.t -> t -> Mach_ipc.Message.t -> unit) ->
  task ->
  'o Mach_vm.Pager_runtime.policy ->
  'o Mach_vm.Pager_runtime.t * t
(** Spawn [service_threads] service threads (default 1) receiving
    kernel calls on every enabled port of the task, plus the [.notify]
    thread. Every message goes through {!Mach_vm.Pager_runtime.dispatch},
    non-protocol traffic to [on_other]. The runtime hears of each
    object- or request-port death and the notify thread runs it, so a
    [p_death] that sends may block without stalling the port's
    destroyer. Multiple threads are the §6.1 advice: they let one
    thread serve a data request while another is blocked, and remove
    the server as a serial bottleneck. Returns
    the runtime (for registering objects, sending Table 3-6 calls and
    reading stats) and the server (for [create_memory_object], [stop]).
    The runtime's stats block is registered in the host's metrics under
    ["pager." ^ task name]; replies that fail count as
    [s_dropped_replies] and leave a ["pager"] trace point naming their
    destination. *)

val task : t -> task

val create_memory_object : t -> ?backlog:int -> unit -> Mach_ipc.Message.port
(** Allocate and enable a port to serve as a new memory object. *)

val stop : t -> unit
(** Ask the service loops to exit at the next message. *)
