type waiter = { n : int; wake : unit Engine.waiter }
type t = { mutable avail : int; waiting : waiter Queue.t }

let create permits =
  if permits < 0 then invalid_arg "Semaphore.create: negative permits";
  { avail = permits; waiting = Queue.create () }

(* FIFO grant: only the queue head may be served, preserving fairness for
   large requests. *)
let drain t =
  let continue_draining = ref true in
  while !continue_draining do
    match Queue.peek_opt t.waiting with
    | Some w when w.n <= t.avail ->
      ignore (Queue.take t.waiting);
      t.avail <- t.avail - w.n;
      Engine.wake w.wake ()
    | Some _ | None -> continue_draining := false
  done

let acquire ?(n = 1) t =
  if Queue.is_empty t.waiting && t.avail >= n then t.avail <- t.avail - n
  else
    Engine.block (fun wake -> Queue.add { n; wake } t.waiting)

let try_acquire ?(n = 1) t =
  if Queue.is_empty t.waiting && t.avail >= n then begin
    t.avail <- t.avail - n;
    true
  end
  else false

let release ?(n = 1) t =
  t.avail <- t.avail + n;
  drain t

let with_permit t f =
  acquire t;
  match f () with
  | v ->
    release t;
    v
  | exception e ->
    release t;
    raise e
