open Mach

let page = 4096

let run ~rounds ~traced =
  let sys = Kernel.create_system () in
  let kernel = sys.Kernel.kernel in
  Trace.set_enabled (Kernel.trace kernel) traced;
  let finished = ref false in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let task = Task.create kernel ~name:"storm" () in
      ignore
        (Thread.spawn task ~name:"storm.main" (fun () ->
             (* Zero-fill, then soft refaults of the same range. *)
             let addr = Syscalls.vm_allocate task ~size:(rounds * page) ~anywhere:true () in
             for i = 0 to rounds - 1 do
               ignore (Syscalls.touch task ~addr:(addr + (i * page)) ~write:true ())
             done;
             (match Vm_map.pmap (Task.map task) with
             | Some pm ->
               for i = 0 to rounds - 1 do
                 Pmap.remove pm ~vpn:((addr + (i * page)) / page)
               done
             | None -> ());
             for i = 0 to rounds - 1 do
               ignore (Syscalls.touch task ~addr:(addr + (i * page)) ~write:false ())
             done;
             (* External-pager faults: each one rides IPC to a prompt
                user-level manager and back. *)
             let mgr = Task.create kernel ~name:"file-mgr" () in
             let policy =
               {
                 Pager_runtime.default_policy with
                 Pager_runtime.p_read =
                   (fun _ _ ~request:_ ~page:_ ~npages:_ ~desired_access:_ ->
                     Pager_runtime.Data (Bytes.make page 'f'));
               }
             in
             let rt, srv = Memory_object_server.serve mgr policy in
             let memory_object = Memory_object_server.create_memory_object srv () in
             ignore (Pager_runtime.register rt ~memory_object ());
             let ext =
               Syscalls.vm_allocate_with_pager task ~size:(rounds * page) ~anywhere:true
                 ~memory_object ~offset:0 ()
             in
             for i = 0 to rounds - 1 do
               ignore (Syscalls.touch task ~addr:(ext + (i * page)) ~write:false ())
             done;
             finished := true)));
  Engine.run sys.Kernel.engine;
  if not !finished then failwith "Fault_storm.run: the storm thread did not finish";
  sys
