(** Kernel-level records: one [kernel] per host, tasks and threads
    within it. Tasks and the kernel reference each other, so the records
    share this module; operations live in {!Kernel}, {!Task},
    {!Thread} and {!Syscalls}. *)

module Engine = Mach_sim.Engine
module Sched = Mach_sim.Sched
module Waitq = Mach_sim.Waitq

type kernel = {
  k_host : int;
  k_engine : Engine.t;
  k_ctx : Mach_ipc.Context.t;
  k_net : Mach_hw.Net.t;
  k_kctx : Mach_vm.Kctx.t;
  k_params : Mach_hw.Machine.params;
  k_sched : Sched.t;
      (** the host's processors (shared with [k_kctx.sched]): per-CPU
          run queues, home CPUs, work stealing, handoff *)
  k_paging_disk : Mach_hw.Disk.t;
  mutable k_tasks : task list;
  mutable k_next_task_id : int;
  mutable k_next_thread_id : int;
  k_space : Mach_ipc.Port_space.t;
      (** the kernel task's own space: it holds the receive right of
          every task and thread port, and the task server receives on
          it *)
  mutable k_task_port_maker : (task -> Mach_ipc.Message.port) option;
      (** installed by the task-port server at boot; gives every new
          task the kernel port that represents it (§3.2) *)
  mutable k_thread_port_maker : (thread -> Mach_ipc.Message.port) option;
  mutable k_default_pager : Default_pager.t option;
}

and task = {
  t_id : int;
  t_name : string;
  t_kernel : kernel;
  t_map : Mach_vm.Vm_map.t;
  t_space : Mach_ipc.Port_space.t;
  t_node : Mach_ipc.Transport.node;
  mutable t_threads : thread list;
  mutable t_alive : bool;
  mutable t_port : Mach_ipc.Message.port option;
      (** the kernel port representing this task; messages to it invoke
          operations on the task *)
}

and thread = {
  th_id : int;
  th_name : string;
  th_task : task;
  mutable th_suspend_count : int;
  th_resume : Waitq.t;
  mutable th_done : bool;
  mutable th_port : Mach_ipc.Message.port option;
      (** the kernel port representing this thread (§3.2) *)
}
