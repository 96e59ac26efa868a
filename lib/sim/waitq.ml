type waiter = { mutable fired : bool; wake : bool -> unit }
type t = { queue : waiter Queue.t }

let create () = { queue = Queue.create () }

let wait t =
  let woken =
    Engine.suspend (fun _eng k ->
        let w = { fired = false; wake = k } in
        Queue.add w t.queue)
  in
  assert woken

let wait_timeout t ~timeout =
  Engine.suspend (fun eng k ->
      let w = { fired = false; wake = k } in
      Queue.add w t.queue;
      Engine.schedule eng
        ~at:(Engine.now eng +. timeout)
        (fun () ->
          if not w.fired then begin
            w.fired <- true;
            w.wake false
          end))

let rec signal t =
  match Queue.take_opt t.queue with
  | None -> ()
  | Some w ->
    if w.fired then signal t
    else begin
      w.fired <- true;
      w.wake true
    end

let broadcast t =
  let rec drain () =
    match Queue.take_opt t.queue with
    | None -> ()
    | Some w ->
      if not w.fired then begin
        w.fired <- true;
        w.wake true
      end;
      drain ()
  in
  drain ()
