type t = { queue : bool Engine.waiter Queue.t }

let create () = { queue = Queue.create () }

let wait t =
  let woken = Engine.block (fun w -> Queue.add w t.queue) in
  assert woken

let wait_timeout t ~timeout =
  Engine.block ~timeout:(timeout, false) (fun w -> Queue.add w t.queue)

let rec signal t =
  match Queue.take_opt t.queue with
  | None -> ()
  | Some w -> if Engine.waiting w then Engine.wake w true else signal t

let broadcast t =
  Queue.iter (fun w -> Engine.wake w true) t.queue;
  Queue.clear t.queue
