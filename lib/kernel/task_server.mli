(** The kernel as a server (§3.2): "The kernel task acts as a server
    which in turn implements tasks and threads. The act of creating a
    task or thread returns send access rights to a port that represents
    the new task... Messages sent to such a port result in operations
    being performed on the object it represents."

    Every task gets a task port; this module is the kernel thread that
    receives on all of them and performs the requested operation. The
    indirection is location-independent: "a thread can suspend another
    thread by sending a suspend message... even if the request is
    initiated on another node in a network." *)

open Ktypes

type t

val start : kernel -> t
(** Spawn the dispatcher and install the port maker so subsequent
    {!Task.create} calls get task ports. Called at every kernel's boot
    ({!Kernel.create_system}, {!Kernel.create_cluster}). *)

val task_port : task -> Mach_ipc.Message.port
(** The port representing a task; raises [Invalid_argument] for tasks
    created before the server started. *)

val thread_port : thread -> Mach_ipc.Message.port
(** The port representing a thread; [suspend]/[resume]/[info] work on
    it exactly as on task ports, affecting just that thread. *)

(** Remote procedure calls on task ports (usable from any host). *)
module Client : sig
  type error = [ `Dead_task | `Ipc_failure | `Malformed ]

  val pp_error : Format.formatter -> error -> unit

  type info = { ti_name : string; ti_threads : int; ti_mapped_bytes : int; ti_suspended : bool }

  val suspend : task -> target:Mach_ipc.Message.port -> (unit, error) result
  (** Suspend every thread of the target task (parks at the next
      checkpoint, like [task_suspend]). *)

  val resume : task -> target:Mach_ipc.Message.port -> (unit, error) result
  val terminate : task -> target:Mach_ipc.Message.port -> (unit, error) result
  val info : task -> target:Mach_ipc.Message.port -> (info, error) result

  val vm_allocate : task -> target:Mach_ipc.Message.port -> size:int -> (int, error) result
  (** Allocate memory in the *target* task's address space. *)
end
