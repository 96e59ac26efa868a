open Mach_kernel.Ktypes
module Message = Mach_ipc.Message
module Port_space = Mach_ipc.Port_space
module Prot = Mach_hw.Prot
module Engine = Mach_sim.Engine
module Syscalls = Mach_kernel.Syscalls
module Pager_iface = Mach_vm.Pager_iface
module Rt = Mach_vm.Pager_runtime

type t = { srv_task : task; mutable running : bool }

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
  on_data_unlock :
    t ->
    memory_object:Message.port ->
    request:Message.port ->
    offset:int ->
    length:int ->
    desired_access:Prot.t ->
    unit;
  on_port_death : t -> Message.port -> unit;
  on_lock_completed :
    t -> memory_object:Message.port -> request:Message.port option -> offset:int -> length:int -> unit;
  on_other : t -> Message.t -> unit;
}

let task t = t.srv_task

(* A failed reply means the kernel side it was meant for is gone (its
   request port died). A dropped reply leaves no message behind to
   inspect: put the destination port name on the trace so `machsim
   trace` shows who the reply was for, not just that one vanished. *)
let send_from task (msg : Message.t) =
  match Syscalls.msg_send task msg with
  | Ok () -> Ok ()
  | Error _ ->
    let tr = task.t_kernel.k_kctx.Mach_vm.Kctx.trace in
    if Mach_sim.Trace.enabled tr then
      Mach_sim.Trace.point tr ~span:msg.header.trace_span ~subsystem:"pager"
        (Format.asprintf "dropped_reply:%a" Mach_ipc.Port.pp msg.header.dest);
    Error ()

let m2k t call ~request = ignore (send_from t.srv_task (Pager_iface.encode_m2k call ~request))

let data_provided t ~request ~offset ~data ~lock_value =
  m2k t (Pager_iface.Data_provided { offset; data; lock_value }) ~request

let data_lock t ~request ~offset ~length ~lock_value =
  m2k t (Pager_iface.Data_lock { offset; length; lock_value }) ~request

let flush_request t ~request ~offset ~length =
  m2k t (Pager_iface.Flush_request { offset; length }) ~request

let clean_request t ~request ~offset ~length =
  m2k t (Pager_iface.Clean_request { offset; length }) ~request

let cache t ~request ~may_cache = m2k t (Pager_iface.Cache { may_cache }) ~request

let data_unavailable t ~request ~offset ~size =
  m2k t (Pager_iface.Data_unavailable { offset; size }) ~request

let no_callbacks =
  {
    on_init = (fun _ ~memory_object:_ ~request:_ ~name:_ -> ());
    on_data_request = (fun _ ~memory_object:_ ~request:_ ~offset:_ ~length:_ ~desired_access:_ -> ());
    on_data_write = (fun _ ~memory_object:_ ~offset:_ ~data:_ ~release -> release ());
    on_data_unlock = (fun _ ~memory_object:_ ~request:_ ~offset:_ ~length:_ ~desired_access:_ -> ());
    on_port_death = (fun _ _ -> ());
    on_lock_completed = (fun _ ~memory_object:_ ~request:_ ~offset:_ ~length:_ -> ());
    on_other = (fun _ _ -> ());
  }

let dispatch t cb (msg : Message.t) =
  if not (Pager_iface.is_pager_msg msg) then cb.on_other t msg
  else
    match Pager_iface.decode_k2m msg with
    | exception Pager_iface.Malformed _ -> ()
  | Pager_iface.Init { memory_object; request; name } ->
    cb.on_init t ~memory_object ~request ~name
  | Pager_iface.Data_request { memory_object; request; offset; length; desired_access } ->
    cb.on_data_request t ~memory_object ~request ~offset ~length ~desired_access
  | Pager_iface.Data_write { memory_object; offset; data; write_id } ->
    (* The kernel passes its request port as the reply port so the
       manager's release (modelling its vm_deallocate of the
       transferred region, §6.2.2) can be routed back. *)
    let release =
      match msg.Message.header.reply with
      | Some request ->
        let released = ref false in
        fun () ->
          if not !released then begin
            released := true;
            m2k t (Pager_iface.Release_write { write_id }) ~request
          end
      | None -> fun () -> ()
    in
    cb.on_data_write t ~memory_object ~offset ~data ~release
  | Pager_iface.Data_unlock { memory_object; request; offset; length; desired_access } ->
    cb.on_data_unlock t ~memory_object ~request ~offset ~length ~desired_access
  | Pager_iface.Create { new_memory_object; _ } ->
    (* Accept the receive right; the kernel's calls on the object
       arrive on it. *)
    let n = Port_space.insert t.srv_task.t_space new_memory_object Message.Receive_right in
    Port_space.enable t.srv_task.t_space n
  | Pager_iface.Lock_completed { memory_object; offset; length } ->
    cb.on_lock_completed t ~memory_object ~request:msg.Message.header.reply ~offset ~length

(* The service threads and the port-death notification thread every
   manager shares, whichever decoder it plugs in. *)
let run ?(service_threads = 1) srv_task ~dispatch ~port_death =
  let t = { srv_task; running = true } in
  for i = 1 to service_threads do
    Engine.spawn srv_task.t_kernel.k_engine
      ~name:(Printf.sprintf "%s.pager-service-%d" srv_task.t_name i)
      (fun () ->
        let trace = srv_task.t_kernel.k_kctx.Mach_vm.Kctx.trace in
        let rec loop () =
          if t.running then begin
            (match Syscalls.msg_receive srv_task ~from:`Any () with
            | Ok msg ->
              (* Serve the request under the faulting thread's span: the
                 manager's work is a leg of that fault's causal path. *)
              Mach_sim.Trace.adopt trace msg.Message.header.Message.trace_span (fun () ->
                  dispatch t msg)
            | Error _ -> ());
            loop ()
          end
        in
        loop ())
  done;
  Engine.spawn srv_task.t_kernel.k_engine ~name:(srv_task.t_name ^ ".notify") (fun () ->
      let rec loop () =
        if t.running then begin
          (match Port_space.next_notification srv_task.t_space () with
          | Some (Port_space.Port_deleted name) -> (
            match Port_space.port_of_name srv_task.t_space name with
            | Some port -> port_death t port
            | None -> ())
          | None -> ());
          loop ()
        end
      in
      loop ());
  t

let start ?service_threads srv_task cb =
  run ?service_threads srv_task ~dispatch:(fun t msg -> dispatch t cb msg)
    ~port_death:cb.on_port_death

let serve ?service_threads ?(on_other = fun _ _ _ -> ()) srv_task policy =
  let kctx = srv_task.t_kernel.k_kctx in
  let rt =
    Rt.create ~name:srv_task.t_name ~page_size:kctx.Mach_vm.Kctx.page_size
      ~send:(send_from srv_task) policy
  in
  (* Every user-level manager's stats block lands in the host registry
     under its own namespace, e.g. "pager.vnode-pager.requests". *)
  Mach_util.Metrics.register_source kctx.Mach_vm.Kctx.metrics
    ~subsystem:("pager." ^ srv_task.t_name)
    (fun () -> Rt.Stats.to_list (Rt.stats rt));
  let srv =
    run ?service_threads srv_task
      ~dispatch:(fun srv msg -> Rt.dispatch rt ~other:(on_other rt srv) msg)
      ~port_death:(fun _ port -> Rt.handle_port_death rt port)
  in
  (rt, srv)

let create_memory_object t ?backlog () =
  let name = Syscalls.port_allocate t.srv_task ?backlog () in
  Syscalls.port_enable t.srv_task name;
  Port_space.lookup_exn t.srv_task.t_space name

let stop t = t.running <- false
