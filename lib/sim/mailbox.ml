type 'a t = {
  queue : 'a Queue.t;
  mutable cap : int option;
  receivers : 'a option Engine.waiter Queue.t; (* woken with Some v, or None on timeout/close *)
  senders : ('a * bool Engine.waiter) Queue.t; (* woken with true when the value was accepted *)
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
  | Some ((_, w) as entry) -> if Engine.waiting w then Some entry else pop_live q

let rec pop_live_receiver q =
  match Queue.take_opt q with
  | None -> None
  | Some w -> if Engine.waiting w then Some w else pop_live_receiver q

let waiters t = Queue.fold (fun n w -> if Engine.waiting w then n + 1 else n) 0 t.receivers

let has_room t =
  match t.cap with None -> true | Some c -> Queue.length t.queue < c

(* After removing a message or raising the capacity, blocked senders
   may now fit. *)
let rec admit_blocked_senders t =
  if has_room t then
    match pop_live t.senders with
    | None -> ()
    | Some (v, w) ->
      Queue.add v t.queue;
      Engine.wake w true;
      admit_blocked_senders t

let set_capacity t cap =
  (match cap with
  | Some c when c < 0 -> invalid_arg "Mailbox.set_capacity: negative capacity"
  | _ -> ());
  t.cap <- cap;
  admit_blocked_senders t

let deliver_direct t v =
  match pop_live_receiver t.receivers with
  | Some w ->
    Engine.wake w (Some v);
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
    let accepted = Engine.block ~timeout:(timeout, false) (fun w -> Queue.add (v, w) t.senders) in
    if (not accepted) && t.closed then raise Closed;
    accepted
  end

let send t v =
  check_open t;
  if deliver_direct t v then ()
  else if has_room t then Queue.add v t.queue
  else if not (Engine.block (fun w -> Queue.add (v, w) t.senders)) then begin
    (* Only a close can refuse an untimed send. *)
    assert t.closed;
    raise Closed
  end

let try_recv t =
  check_open t;
  match Queue.take_opt t.queue with
  | Some v ->
    admit_blocked_senders t;
    Some v
  | None -> (
    (* A blocked sender's message can bypass an empty queue. *)
    match pop_live t.senders with
    | Some (v, w) ->
      Engine.wake w true;
      Some v
    | None -> None)

let recv t =
  match try_recv t with
  | Some v -> v
  | None -> (
    match Engine.block (fun w -> Queue.add w t.receivers) with
    | Some v -> v
    | None ->
      assert t.closed;
      raise Closed)

let recv_timeout t ~timeout =
  match try_recv t with
  | Some v -> Some v
  | None -> (
    if timeout <= 0.0 then None
    else
      match Engine.block ~timeout:(timeout, None) (fun w -> Queue.add w t.receivers) with
      | Some v -> Some v
      | None -> if t.closed then raise Closed else None)

let close ~drop t =
  if not t.closed then begin
    t.closed <- true;
    let dropped = Queue.create () in
    Queue.transfer t.queue dropped;
    Queue.iter (fun w -> Engine.wake w None) t.receivers;
    Queue.clear t.receivers;
    Queue.iter (fun (_, w) -> Engine.wake w false) t.senders;
    Queue.clear t.senders;
    Queue.iter drop dropped
  end
