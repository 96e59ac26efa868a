(** Tasks: the basic unit of resource allocation — "a paged virtual
    address space and protected access to system resources" (§3.1). *)

open Ktypes

val create : kernel -> ?parent:task -> name:string -> unit -> task
(** Create a task. With [parent], the child's address space is built
    from the parent's inheritance attributes (share / copy / none,
    §3.3); without, it starts empty. *)

val terminate : task -> unit
(** Destroy the address space and port space (ports whose receive rights
    live here die; other tasks' names for them go dead). *)

val kernel : task -> kernel
val map : task -> Mach_vm.Vm_map.t
val space : task -> Mach_ipc.Port_space.t
val node : task -> Mach_ipc.Transport.node
val name : task -> string
val alive : task -> bool
