open Mach_kernel.Ktypes
module Message = Mach_ipc.Message
module Port_space = Mach_ipc.Port_space
module Mailbox = Mach_sim.Mailbox
module Engine = Mach_sim.Engine
module Syscalls = Mach_kernel.Syscalls
module Rt = Mach_vm.Pager_runtime

type t = { srv_task : task; mutable running : bool }

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

let serve ?(service_threads = 1) ?(on_other = fun _ _ _ -> ()) srv_task policy =
  let kctx = srv_task.t_kernel.k_kctx in
  (* A policy's [p_death] may send (netmem's revokes) and so block:
     deaths queue here for the notify thread, never run in the hook. *)
  let deaths = Mailbox.create () in
  let rt =
    Rt.create ~name:srv_task.t_name ~page_size:kctx.Mach_vm.Kctx.page_size
      ~send:(send_from srv_task) ~defer:(Mailbox.send deaths) policy
  in
  (* Every user-level manager's stats block lands in the host registry
     under its own namespace, e.g. "pager.vnode-pager.requests". *)
  Mach_util.Metrics.register_source kctx.Mach_vm.Kctx.metrics
    ~subsystem:("pager." ^ srv_task.t_name)
    (fun () -> Rt.Stats.to_list (Rt.stats rt));
  let t = { srv_task; running = true } in
  let engine = srv_task.t_kernel.k_engine in
  for i = 1 to service_threads do
    Engine.spawn engine
      ~name:(Printf.sprintf "%s.pager-service-%d" srv_task.t_name i)
      (fun () ->
        let rec loop () =
          if t.running then begin
            (match Syscalls.msg_receive srv_task ~from:`Any () with
            | Ok msg ->
              (* Serve the request under the faulting thread's span: the
                 manager's work is a leg of that fault's causal path. *)
              Mach_sim.Trace.adopt kctx.Mach_vm.Kctx.trace msg.Message.header.Message.trace_span
                (fun () -> Rt.dispatch rt ~other:(on_other rt t) msg)
            | Error _ -> ());
            loop ()
          end
        in
        loop ())
  done;
  Engine.spawn engine ~name:(srv_task.t_name ^ ".notify") (fun () ->
      let rec loop () =
        if t.running then begin
          Mailbox.recv deaths ();
          loop ()
        end
      in
      loop ());
  (rt, t)

let create_memory_object t ?backlog () =
  let name = Syscalls.port_allocate t.srv_task ?backlog () in
  Syscalls.port_enable t.srv_task name;
  Port_space.lookup_exn t.srv_task.t_space name

let stop t = t.running <- false
