open Ktypes
module Pmap = Mach_hw.Pmap
module Port_space = Mach_ipc.Port_space
module Vm_map = Mach_vm.Vm_map

let create k ?parent ~name () =
  let id = k.k_next_task_id in
  k.k_next_task_id <- id + 1;
  let pmap = Pmap.create k.k_kctx.Mach_vm.Kctx.mem in
  let map =
    match parent with
    | Some p -> Vm_map.fork p.t_map ~child_pmap:(Some pmap)
    | None -> Vm_map.create k.k_kctx ~pmap:(Some pmap)
  in
  let task =
    {
      t_id = id;
      t_name = name;
      t_kernel = k;
      t_map = map;
      t_space = Port_space.create k.k_ctx ~home:k.k_host;
      (* Share the kernel's node: per-host IPC counters aggregate in one
         place instead of scattering across per-task records. *)
      t_node = k.k_kctx.Mach_vm.Kctx.node;
      t_threads = [];
      t_alive = true;
      t_port = None;
    }
  in
  (* Creating a task returns send rights to the port representing it
     (§3.2); the kernel's task server owns the receive right. *)
  (match k.k_task_port_maker with
  | Some make -> task.t_port <- Some (make task)
  | None -> ());
  k.k_tasks <- task :: k.k_tasks;
  task

let terminate t =
  if t.t_alive then begin
    t.t_alive <- false;
    Vm_map.destroy t.t_map;
    Port_space.destroy t.t_space;
    (* The task's port and those of its threads still running die with
       it; a thread that returns later finds its port already dead. *)
    List.iter (fun th -> Option.iter Mach_ipc.Port.destroy th.th_port) t.t_threads;
    Option.iter Mach_ipc.Port.destroy t.t_port;
    t.t_kernel.k_tasks <- List.filter (fun x -> x != t) t.t_kernel.k_tasks
  end

let kernel t = t.t_kernel
let map t = t.t_map
let space t = t.t_space
let node t = t.t_node
let name t = t.t_name
let alive t = t.t_alive
