(** Public umbrella API for the Mach reproduction.

    [Mach] re-exports the pieces a client program needs: boot a system
    ({!Kernel.create_system} or {!Kernel.create_cluster}), create tasks
    and threads, use the Table 3-1..3-4 system calls ({!Syscalls}), and
    write data managers with {!Memory_object_server} and a
    {!Pager_runtime} policy.

    {[
      let sys = Mach.Kernel.create_system () in
      let task = Mach.Task.create sys.kernel ~name:"app" () in
      Mach.Thread.spawn task (fun () ->
          let addr = Mach.Syscalls.vm_allocate task ~size:65536 ~anywhere:true () in
          ...) |> ignore;
      Mach.run sys.engine
    ]} *)

module Engine = Mach_sim.Engine
module Trace = Mach_sim.Trace
module Metrics = Mach_util.Metrics
module Counters = Mach_util.Metrics.Counters
module Ivar = Mach_sim.Ivar
module Mailbox = Mach_sim.Mailbox
module Semaphore = Mach_sim.Semaphore
module Waitq = Mach_sim.Waitq
module Machine = Mach_hw.Machine
module Prot = Mach_hw.Prot
module Phys_mem = Mach_hw.Phys_mem
module Pmap = Mach_hw.Pmap
module Disk = Mach_hw.Disk
module Net = Mach_hw.Net
module Context = Mach_ipc.Context
module Port = Mach_ipc.Port
module Message = Mach_ipc.Message
module Port_space = Mach_ipc.Port_space
module Transport = Mach_ipc.Transport
module Vm_types = Mach_vm.Vm_types
module Vm_object = Mach_vm.Vm_object
module Vm_map = Mach_vm.Vm_map
module Fault = Mach_vm.Fault
module Access = Mach_vm.Access
module Pager_iface = Mach_vm.Pager_iface
module Pageout = Mach_vm.Pageout
module Kctx = Mach_vm.Kctx
module Ktypes = Mach_kernel.Ktypes
module Kernel = Mach_kernel.Kernel
module Task = Mach_kernel.Task
module Thread = Mach_kernel.Thread
module Cpu = Mach_kernel.Cpu
module Syscalls = Mach_kernel.Syscalls
module Default_pager = Mach_kernel.Default_pager
module Name_server = Mach_kernel.Name_server
module Task_server = Mach_kernel.Task_server
module Memory_object_server = Memory_object_server
module Pager_runtime = Mach_vm.Pager_runtime

type task = Ktypes.task
type kernel = Ktypes.kernel

let run ?until engine = Engine.run ?until engine

let spawn_and_run ?until (sys : Kernel.system) ~name f =
  let task = Task.create sys.Kernel.kernel ~name () in
  ignore (Thread.spawn task ~name:(name ^ ".main") (fun () -> f task));
  run ?until sys.Kernel.engine
