(** The kernel threads that serve pager traffic.

    Pager request ports (the kernel holds their receive rights) are
    enabled in the kernel's port space; {!start}'s thread receives from
    that default group and dispatches each message to
    {!Mach_vm.Pager_client.handle_manager_message}. The default pager
    serves its memory objects with the same loop. *)

val receive_loop :
  Mach_vm.Kctx.t -> name:string -> Mach_ipc.Port_space.t -> (Mach_ipc.Message.t -> unit) -> unit
(** Spawn a kernel thread [name] that receives forever from the
    enabled ports of a port space, handling each message under the
    trace span its header carries. *)

val start : Mach_vm.Kctx.t -> unit
