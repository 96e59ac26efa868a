open Ktypes
module Engine = Mach_sim.Engine
module Waitq = Mach_sim.Waitq

(* A thread's fiber carries it, so the running thread is found without
   a table. *)
type Engine.owner += Kernel_thread of thread

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
  (* Nothing outlives the thread: its port dies (and the task server
     forgets it), whether the body returns or raises. *)
  Engine.spawn k.k_engine ~name:th_name (fun () ->
      Engine.set_owner (Engine.self ()) (Kernel_thread th);
      Fun.protect body ~finally:(fun () ->
          th.th_done <- true;
          Option.iter Mach_ipc.Port.destroy th.th_port));
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
  match Engine.owner (Engine.self ()) with
  | Kernel_thread th when th.th_task == task -> checkpoint th
  | _ -> ()

let is_done th = th.th_done
