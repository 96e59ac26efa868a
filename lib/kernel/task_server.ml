open Ktypes
module Message = Mach_ipc.Message
module Port = Mach_ipc.Port
module Port_space = Mach_ipc.Port_space
module Codec = Mach_util.Codec

let id_suspend = 3401
let id_resume = 3402
let id_terminate = 3403
let id_info = 3404
let id_vm_allocate = 3405

type target = Task_target of task | Thread_target of thread

type t = { kernel : kernel; by_port : (int, target) Hashtbl.t }

let task_port task =
  match task.t_port with
  | Some p -> p
  | None -> invalid_arg "Task_server.task_port: task has no port (created before boot?)"

let thread_port th =
  match th.th_port with
  | Some p -> p
  | None -> invalid_arg "Task_server.thread_port: thread has no port"

let all_suspended task =
  task.t_threads <> [] && List.for_all (fun th -> th.th_suspend_count > 0) task.t_threads

let info_item name ~threads ~mapped ~suspended =
  Message.data (fun e ->
      Codec.Enc.string e name;
      Codec.Enc.int e threads;
      Codec.Enc.int e mapped;
      Codec.Enc.bool e suspended)

(* An operation's answer: [Some items] succeeds with [items] after the
   status, [None] refuses. *)
let on_thread th id =
  if th.th_done then None
  else if id = id_suspend then begin
    Thread.suspend th;
    Some []
  end
  else if id = id_resume then begin
    Thread.resume th;
    Some []
  end
  else if id = id_info then
    Some [ info_item th.th_name ~threads:1 ~mapped:0 ~suspended:(th.th_suspend_count > 0) ]
  else None

let on_task task msg id =
  if not task.t_alive then None
  else if id = id_suspend then begin
    List.iter Thread.suspend task.t_threads;
    Some []
  end
  else if id = id_resume then begin
    List.iter Thread.resume task.t_threads;
    Some []
  end
  else if id = id_terminate then begin
    Task.terminate task;
    Some []
  end
  else if id = id_info then
    Some
      [
        info_item task.t_name ~threads:(List.length task.t_threads)
          ~mapped:(Mach_vm.Vm_map.size task.t_map) ~suspended:(all_suspended task);
      ]
  else if id = id_vm_allocate then
    Result.to_option (Rpc.decode msg Codec.Dec.int)
    |> Option.map (fun size ->
           [ Rpc.int (Mach_vm.Vm_map.allocate task.t_map ~size ~anywhere:true ()) ])
  else None

let handle t (msg : Message.t) =
  let id = msg.Message.header.msg_id in
  let answer =
    match Hashtbl.find_opt t.by_port (Port.id msg.Message.header.dest) with
    | None -> None
    | Some (Thread_target th) -> on_thread th id
    | Some (Task_target task) -> on_task task msg id
  in
  (* The kernel's dispatcher must never block: a full reply queue is
     retried from a detached thread. *)
  Rpc.reply
    ~send:(Mach_vm.Pager_client.kernel_send ~retry_thread:"task-server-reply" t.kernel.k_kctx)
    msg
    (match answer with Some items -> Rpc.status true :: items | None -> [ Rpc.status false ])

let start kernel =
  (* The kernel's space holds the receive right of every task and
     thread port. *)
  let space = kernel.k_space in
  let t = { kernel; by_port = Hashtbl.create 32 } in
  (* Whatever kills a port (its thread's exit, its task's termination,
     a host crash), the server forgets the target and frees the name,
     so the kernel's space keeps no dead names. *)
  let forget port =
    Hashtbl.remove t.by_port (Port.id port);
    Option.iter (Port_space.deallocate space) (Port_space.name_of space port)
  in
  let make_port target =
    let port = Port.create kernel.k_ctx ~home:kernel.k_host ~backlog:64 ~drop:Message.discard () in
    Port.on_death port (fun () -> forget port);
    let name = Port_space.insert space port Message.Receive_right in
    Port_space.enable space name;
    Hashtbl.replace t.by_port (Port.id port) target;
    port
  in
  kernel.k_task_port_maker <- Some (fun task -> make_port (Task_target task));
  kernel.k_thread_port_maker <- Some (fun th -> make_port (Thread_target th));
  Mach_util.Metrics.gauge kernel.k_kctx.Mach_vm.Kctx.metrics ~subsystem:"task_server" "targets"
    (fun () -> Hashtbl.length t.by_port);
  Pager_service.receive_loop kernel.k_kctx ~name:"task-server" space (handle t);
  t

module Client = struct
  type error = [ `Dead_task | `Ipc_failure | `Malformed ]

  let pp_error fmt = function
    | `Dead_task -> Format.fprintf fmt "task is dead"
    | `Ipc_failure -> Format.fprintf fmt "ipc failure"
    | `Malformed -> Format.fprintf fmt "malformed reply"

  type info = { ti_name : string; ti_threads : int; ti_mapped_bytes : int; ti_suspended : bool }

  let call caller ~target ~msg_id items =
    Rpc.call caller ~dest:target ~msg_id items
    |> Result.map_error (function `Refused _ -> `Dead_task | (`Malformed | `Ipc_failure) as e -> e)

  let unit_op msg_id caller ~target = Result.map ignore (call caller ~target ~msg_id [])
  let suspend caller ~target = unit_op id_suspend caller ~target
  let resume caller ~target = unit_op id_resume caller ~target
  let terminate caller ~target = unit_op id_terminate caller ~target

  let info caller ~target =
    Result.bind (call caller ~target ~msg_id:id_info []) (fun reply ->
        Rpc.decode reply (fun d ->
            let ti_name = Codec.Dec.string d in
            let ti_threads = Codec.Dec.int d in
            let ti_mapped_bytes = Codec.Dec.int d in
            let ti_suspended = Codec.Dec.bool d in
            { ti_name; ti_threads; ti_mapped_bytes; ti_suspended }))

  let vm_allocate caller ~target ~size =
    Result.bind (call caller ~target ~msg_id:id_vm_allocate [ Rpc.int size ]) (fun reply ->
        Rpc.decode reply Codec.Dec.int)
end
