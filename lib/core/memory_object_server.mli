(** Skeleton for writing user-level data managers.

    A data manager implements a memory object by receiving the kernel's
    Table 3-5 calls and replying with the Table 3-6 calls. This module
    is the receive loop every pager in §4 and §8 shares. Most managers
    plug a {!Mach_vm.Pager_runtime} policy into it with {!serve}; the
    raw {!start} takes hand-written callbacks instead (tests, and
    managers that misbehave on purpose). Either way, create memory
    objects with {!create_memory_object} and hand them to clients.
    Handlers run on the manager task's service thread and may block
    (e.g. on disk I/O); use multiple manager tasks or threads for
    deadlock-sensitive services (§6.1).

    {v
      Memory_object_server   (receive loop, port-death notify)
             |
        Pager_runtime        (decoding, registry, splitting, coalescing, stats)
             |
        policy module        (backing-store read/write + consistency)
    v} *)

open Mach_kernel.Ktypes

module Message = Mach_ipc.Message
module Prot = Mach_hw.Prot

type t

val serve :
  ?service_threads:int ->
  ?on_other:('o Mach_vm.Pager_runtime.t -> t -> Message.t -> unit) ->
  task ->
  'o Mach_vm.Pager_runtime.policy ->
  'o Mach_vm.Pager_runtime.t * t
(** Serve a runtime policy from a manager task: every message goes
    through {!Mach_vm.Pager_runtime.dispatch}, non-protocol traffic to
    [on_other], port deaths to the runtime. Returns the runtime (for
    registering objects and reading stats) and the server (for
    [create_memory_object], [stop]). The runtime's stats block is
    registered in the host's metrics under ["pager." ^ task name];
    replies that fail count as [s_dropped_replies]. *)

type callbacks = {
  on_init : t -> memory_object:Message.port -> request:Message.port -> name:Message.port -> unit;
  on_data_request :
    t ->
    memory_object:Message.port ->
    request:Message.port ->
    offset:int ->
    length:int ->
    desired_access:Prot.t ->
    unit;
  on_data_write :
    t -> memory_object:Message.port -> offset:int -> data:bytes -> release:(unit -> unit) -> unit;
      (** Call [release] once the data is safe (written to backing
          store); forgetting to is the §6 "fails to free flushed data"
          failure, which the kernel survives by double paging. *)
  on_data_unlock :
    t ->
    memory_object:Message.port ->
    request:Message.port ->
    offset:int ->
    length:int ->
    desired_access:Prot.t ->
    unit;
  on_port_death : t -> Message.port -> unit;
      (** The kernel deallocated its rights (object terminated): release
          resources for that request/name port (§4.1 [port_death]). *)
  on_lock_completed :
    t -> memory_object:Message.port -> request:Message.port option -> offset:int -> length:int -> unit;
      (** A flush/clean the manager requested has been carried out by
          the kernel identified by [request]. *)
  on_other : t -> Message.t -> unit;
      (** Non-pager-protocol traffic (the manager's own RPC service),
          e.g. [fs_read_file] requests arriving at a filesystem
          server. *)
}

val no_callbacks : callbacks
(** Every handler a no-op, except [on_data_write] which releases
    immediately. Build real managers with [{ no_callbacks with ... }]. *)

val start : ?service_threads:int -> task -> callbacks -> t
(** Spawn [service_threads] service threads (default 1) receiving
    kernel calls on every enabled port of the task, plus the
    notification thread (port deaths). Multiple threads are the §6.1
    advice: they let one thread serve a data request while another is
    blocked, and remove the server as a serial bottleneck. A
    [pager_create] is answered by taking the new object's receive
    right. *)

val task : t -> task

val create_memory_object : t -> ?backlog:int -> unit -> Message.port
(** Allocate and enable a port to serve as a new memory object. *)

val stop : t -> unit
(** Ask the service loops to exit at the next message. *)

(** {2 Table 3-6 calls (manager → kernel)}

    A send that fails (the kernel's request port died) leaves a
    ["pager"] trace point naming its destination. *)

val data_provided :
  t -> request:Message.port -> offset:int -> data:bytes -> lock_value:Prot.t -> unit

val data_lock : t -> request:Message.port -> offset:int -> length:int -> lock_value:Prot.t -> unit
val flush_request : t -> request:Message.port -> offset:int -> length:int -> unit
val clean_request : t -> request:Message.port -> offset:int -> length:int -> unit
val cache : t -> request:Message.port -> may_cache:bool -> unit
val data_unavailable : t -> request:Message.port -> offset:int -> size:int -> unit
