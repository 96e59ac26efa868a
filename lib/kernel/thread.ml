open Ktypes
module Engine = Mach_sim.Engine
module Waitq = Mach_sim.Waitq

let spawn task ?name body =
  let k = task.t_kernel in
  let id = k.k_next_thread_id in
  k.k_next_thread_id <- id + 1;
  let th_name =
    match name with Some n -> n | None -> Printf.sprintf "%s.thread-%d" task.t_name id
  in
  let th =
    { th_id = id; th_name; th_task = task; th_suspend_count = 0; th_resume = Waitq.create ();
      th_done = false; th_port = None }
  in
  (match k.k_thread_port_maker with
  | Some make -> th.th_port <- Some (make th)
  | None -> ());
  task.t_threads <- th :: task.t_threads;
  Hashtbl.replace task.t_threads_by_name th_name th;
  (* Nothing outlives the thread: its port dies (and the task server
     forgets it) and its home CPU is forgotten, whether the body returns
     or raises. *)
  Engine.spawn k.k_engine ~name:th_name (fun () ->
      Fun.protect body ~finally:(fun () ->
          th.th_done <- true;
          Option.iter Mach_ipc.Port.destroy th.th_port;
          Mach_sim.Sched.forget k.k_sched th_name));
  th

let suspend th = th.th_suspend_count <- th.th_suspend_count + 1

let resume th =
  if th.th_suspend_count > 0 then begin
    th.th_suspend_count <- th.th_suspend_count - 1;
    if th.th_suspend_count = 0 then Waitq.broadcast th.th_resume
  end

let checkpoint th =
  while th.th_suspend_count > 0 do
    Waitq.wait th.th_resume
  done

let self_checkpoint task =
  match Hashtbl.find_opt task.t_threads_by_name (Engine.self_name ()) with
  | Some th -> checkpoint th
  | None -> ()

let is_done th = th.th_done
let thread_name th = th.th_name
