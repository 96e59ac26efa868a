type 'a waiter = { mutable fired : bool; wake : 'a -> unit }

type 'a t = {
  queue : 'a Queue.t;
  mutable cap : int option;
  receivers : 'a option waiter Queue.t; (* woken with Some v, or None on timeout/close *)
  senders : ('a * bool waiter) Queue.t; (* woken with true when the value was accepted *)
  mutable closed : bool;
}

exception Closed

let check_open t = if t.closed then raise Closed

let create ?capacity () =
  (match capacity with
  | Some c when c < 0 -> invalid_arg "Mailbox.create: negative capacity"
  | _ -> ());
  { queue = Queue.create (); cap = capacity; receivers = Queue.create (); senders = Queue.create ();
    closed = false }

let capacity t = t.cap
let length t = Queue.length t.queue
let is_empty t = Queue.is_empty t.queue

let rec pop_live q =
  match Queue.take_opt q with
  | None -> None
  | Some ((_, w) as entry) -> if w.fired then pop_live q else Some entry

let rec pop_live_receiver q =
  match Queue.take_opt q with
  | None -> None
  | Some w -> if w.fired then pop_live_receiver q else Some w

let waiters t = Queue.fold (fun n w -> if w.fired then n else n + 1) 0 t.receivers

let has_room t =
  match t.cap with None -> true | Some c -> Queue.length t.queue < c

(* After removing a message, a blocked sender may now fit. *)
let admit_blocked_sender t =
  if has_room t then
    match pop_live t.senders with
    | None -> ()
    | Some (v, w) ->
      Queue.add v t.queue;
      w.fired <- true;
      w.wake true

let set_capacity t cap =
  (match cap with
  | Some c when c < 0 -> invalid_arg "Mailbox.set_capacity: negative capacity"
  | _ -> ());
  t.cap <- cap;
  (* A raised capacity may admit blocked senders. *)
  let continue_admitting = ref true in
  while !continue_admitting do
    if has_room t && not (Queue.is_empty t.senders) then begin
      match pop_live t.senders with
      | None -> continue_admitting := false
      | Some (v, w) ->
        Queue.add v t.queue;
        w.fired <- true;
        w.wake true
    end
    else continue_admitting := false
  done

let deliver_direct t v =
  match pop_live_receiver t.receivers with
  | Some w ->
    w.fired <- true;
    w.wake (Some v);
    true
  | None -> false

let send_timeout t v ~timeout =
  check_open t;
  if deliver_direct t v then true
  else if has_room t then begin
    Queue.add v t.queue;
    true
  end
  else if timeout <= 0.0 then false
  else begin
    let accepted =
      Engine.suspend (fun eng k ->
          let w = { fired = false; wake = k } in
          Queue.add (v, w) t.senders;
          Engine.schedule eng
            ~at:(Engine.now eng +. timeout)
            (fun () ->
              if not w.fired then begin
                w.fired <- true;
                w.wake false
              end))
    in
    if (not accepted) && t.closed then raise Closed;
    accepted
  end

let send t v =
  check_open t;
  if deliver_direct t v then ()
  else if has_room t then Queue.add v t.queue
  else
    let accepted =
      Engine.suspend (fun _eng k ->
          let w = { fired = false; wake = k } in
          Queue.add (v, w) t.senders)
    in
    if not accepted then begin
      (* Only a close can refuse an untimed send. *)
      assert t.closed;
      raise Closed
    end

let try_recv t =
  check_open t;
  match Queue.take_opt t.queue with
  | Some v ->
    admit_blocked_sender t;
    Some v
  | None -> (
    (* A blocked sender's message can bypass an empty queue. *)
    match pop_live t.senders with
    | Some (v, w) ->
      w.fired <- true;
      w.wake true;
      Some v
    | None -> None)

let recv t =
  match try_recv t with
  | Some v -> v
  | None -> (
    let r =
      Engine.suspend (fun _eng k ->
          let w = { fired = false; wake = k } in
          Queue.add w t.receivers)
    in
    match r with
    | Some v -> v
    | None ->
      assert t.closed;
      raise Closed)

let recv_timeout t ~timeout =
  match try_recv t with
  | Some v -> Some v
  | None ->
    if timeout <= 0.0 then None
    else
      match
        Engine.suspend (fun eng k ->
            let w = { fired = false; wake = k } in
            Queue.add w t.receivers;
            Engine.schedule eng
              ~at:(Engine.now eng +. timeout)
              (fun () ->
                if not w.fired then begin
                  w.fired <- true;
                  w.wake None
                end))
      with
      | Some v -> Some v
      | None -> if t.closed then raise Closed else None


let close t =
  if not t.closed then begin
    t.closed <- true;
    Queue.clear t.queue;
    Queue.iter
      (fun w ->
        if not w.fired then begin
          w.fired <- true;
          w.wake None
        end)
      t.receivers;
    Queue.clear t.receivers;
    Queue.iter
      (fun (_, w) ->
        if not w.fired then begin
          w.fired <- true;
          w.wake false
        end)
      t.senders;
    Queue.clear t.senders
  end

