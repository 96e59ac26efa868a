(* [timer] is the timeout of a timed wait ([Engine.no_timer] for an
   untimed one); the wake that ends the wait cancels it. *)
type waiter = {
  mutable fired : bool;
  wake : bool -> unit;
  eng : Engine.t;
  mutable timer : Engine.timer;
}

type t = { queue : waiter Queue.t }

let create () = { queue = Queue.create () }

let fire w v =
  w.fired <- true;
  Engine.cancel w.eng w.timer;
  w.wake v

let wait t =
  let woken =
    Engine.suspend (fun eng k ->
        Queue.add { fired = false; wake = k; eng; timer = Engine.no_timer } t.queue)
  in
  assert woken

let wait_timeout t ~timeout =
  Engine.suspend (fun eng k ->
      let w = { fired = false; wake = k; eng; timer = Engine.no_timer } in
      Queue.add w t.queue;
      w.timer <- Engine.timer eng ~at:(Engine.now eng +. timeout) (fun () -> fire w false))

let rec signal t =
  match Queue.take_opt t.queue with
  | None -> ()
  | Some w -> if w.fired then signal t else fire w true

let broadcast t =
  let rec drain () =
    match Queue.take_opt t.queue with
    | None -> ()
    | Some w ->
      if not w.fired then fire w true;
      drain ()
  in
  drain ()
