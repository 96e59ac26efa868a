module Mailbox = Mach_sim.Mailbox

type 'msg t = {
  id : int;
  ctx : Context.t;
  mutable home : int;
  queue : 'msg Mailbox.t;
  drop : 'msg -> unit;
  mutable alive : bool;
  mutable death_hooks : (unit -> unit) list;
  mutable arrival_hooks : (int * (unit -> unit)) list;
  mutable next_hook : int;
}

let rec create ctx ~home ?(backlog = 32) ~drop () =
  let t =
    {
      id = Context.fresh_id ctx;
      ctx;
      home;
      queue = Mailbox.create ~capacity:backlog ();
      drop;
      alive = true;
      death_hooks = [];
      arrival_hooks = [];
      next_hook = 0;
    }
  in
  (* Registered untyped so a host crash can find and destroy every port
     homed on the dead host without knowing message types. *)
  Context.register_port ctx ~id:t.id
    ~home:(fun () -> t.home)
    ~destroy:(fun () -> destroy t);
  t

and destroy t =
  if t.alive then begin
    t.alive <- false;
    Context.forget_port t.ctx ~id:t.id;
    let hooks = List.rev t.death_hooks in
    t.death_hooks <- [];
    (* Drop queued messages, releasing what they hold, and wake blocked
       receivers/senders with the death (RCV_PORT_DIED semantics). *)
    Mailbox.close ~drop:t.drop t.queue;
    List.iter (fun f -> f ()) hooks
  end

let id t = t.id
let context t = t.ctx
let home t = t.home
let set_home t host = t.home <- host
let alive t = t.alive
let backlog t = match Mailbox.capacity t.queue with Some c -> c | None -> max_int
let set_backlog t n = if t.alive then Mailbox.set_capacity t.queue (Some n)
let queued t = Mailbox.length t.queue
let queue t = t.queue

let on_death t f = if t.alive then t.death_hooks <- f :: t.death_hooks else f ()

let on_arrival t f =
  let hook_id = t.next_hook in
  t.next_hook <- t.next_hook + 1;
  t.arrival_hooks <- (hook_id, f) :: t.arrival_hooks;
  hook_id

let cancel_on_arrival t hook_id = t.arrival_hooks <- List.remove_assoc hook_id t.arrival_hooks
let notify_arrival t = List.iter (fun (_, f) -> f ()) (List.rev t.arrival_hooks)
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let pp fmt t = Format.fprintf fmt "port#%d%s" t.id (if t.alive then "" else "(dead)")
