module Mailbox = Mach_sim.Mailbox
module Waitq = Mach_sim.Waitq

type name = int
type notification = Port_deleted of name

type status = { st_queued : int; st_backlog : int; st_has_receive : bool; st_enabled : bool }

type entry = {
  port : Message.port;
  mutable send : bool;
  mutable receive : bool;
  mutable is_enabled : bool;
  mutable dead : bool;
  mutable in_ready : bool;  (** name is on the ready FIFO *)
  mutable death_hook : int option;
  mutable arrival_hook : int option;
}

type t = {
  ctx : Context.t;
  mutable host : int;
  names : (name, entry) Hashtbl.t;
  by_port : (int, name) Hashtbl.t; (* port id -> name *)
  mutable next_name : name;
  activity : Waitq.t;
  ready : name Queue.t;
      (* enabled ports with (possibly) queued messages, in arrival
         order: receive-any pops the head instead of scanning every
         enabled port. Entries can go stale (message consumed by a
         direct receive, port disabled or dead); [pop_ready] validates
         and discards lazily. *)
  notifications : notification Mailbox.t;
}

let create ctx ~home =
  {
    ctx;
    host = home;
    names = Hashtbl.create 64;
    by_port = Hashtbl.create 64;
    next_name = 1;
    activity = Waitq.create ();
    ready = Queue.create ();
    notifications = Mailbox.create ();
  }

let context t = t.ctx
let home t = t.host
let set_home t host = t.host <- host
let activity t = t.activity

let fresh_name t =
  let n = t.next_name in
  t.next_name <- n + 1;
  n

let watch_death t name entry =
  let hook =
    Port.on_death entry.port (fun () ->
        if not entry.dead then begin
          entry.dead <- true;
          Mailbox.send t.notifications (Port_deleted name)
        end)
  in
  entry.death_hook <- Some hook

let register t port ~send ~receive =
  let name = fresh_name t in
  let entry =
    { port; send; receive; is_enabled = false; dead = not (Port.alive port); in_ready = false;
      death_hook = None; arrival_hook = None }
  in
  Hashtbl.replace t.names name entry;
  Hashtbl.replace t.by_port (Port.id port) name;
  if not entry.dead then watch_death t name entry
  else Mailbox.send t.notifications (Port_deleted name);
  name

let allocate t ?backlog () =
  let port = Port.create t.ctx ~home:t.host ?backlog () in
  register t port ~send:true ~receive:true

let insert t port right =
  (match right with Message.Receive_right -> Port.set_home port t.host | Message.Send_right -> ());
  match Hashtbl.find_opt t.by_port (Port.id port) with
  | Some name ->
    let entry = Hashtbl.find t.names name in
    (match right with
    | Message.Send_right -> entry.send <- true
    | Message.Receive_right -> entry.receive <- true);
    name
  | None -> (
    match right with
    | Message.Send_right -> register t port ~send:true ~receive:false
    | Message.Receive_right -> register t port ~send:false ~receive:true)

let find t name = Hashtbl.find_opt t.names name

let detach_hooks entry =
  (match entry.death_hook with
  | Some h ->
    Port.cancel_on_death entry.port h;
    entry.death_hook <- None
  | None -> ());
  match entry.arrival_hook with
  | Some h ->
    Port.cancel_on_arrival entry.port h;
    entry.arrival_hook <- None
  | None -> ()

let deallocate t name =
  match find t name with
  | None -> invalid_arg "Port_space.deallocate: unknown name"
  | Some entry ->
    detach_hooks entry;
    (* A destroy already running its hooks may still call this entry's
       death hook: the name is gone, so it must not be notified. *)
    let was_dead = entry.dead in
    entry.dead <- true;
    Hashtbl.remove t.names name;
    Hashtbl.remove t.by_port (Port.id entry.port);
    (* Dropping the receive right destroys the port and notifies
       senders (their own death hooks fire). *)
    if entry.receive && not was_dead then Port.destroy entry.port

let lookup t name =
  match find t name with
  | Some entry when not entry.dead -> Some entry.port
  | Some _ | None -> None

let lookup_exn t name =
  match lookup t name with
  | Some p -> p
  | None -> invalid_arg "Port_space.lookup_exn: unknown or dead name"

let port_of_name t name = match find t name with Some e -> Some e.port | None -> None
let name_of t port = Hashtbl.find_opt t.by_port (Port.id port)
let has_receive t name = match find t name with Some e -> e.receive && not e.dead | None -> false
let has_send t name = match find t name with Some e -> e.send && not e.dead | None -> false

let mark_ready t name entry =
  if not entry.in_ready then begin
    entry.in_ready <- true;
    Queue.push name t.ready
  end

let enable t name =
  match find t name with
  | None -> invalid_arg "Port_space.enable: unknown name"
  | Some entry ->
    if not entry.receive then invalid_arg "Port_space.enable: no receive right";
    if not entry.is_enabled && not entry.dead then begin
      entry.is_enabled <- true;
      (* Each arrival pushes the port onto the ready FIFO (once) and
         wakes exactly one receive-any waiter: the message can be
         consumed by one receiver only, so waking all of them just makes
         the rest spin (the old thundering herd). *)
      let hook =
        Port.on_arrival entry.port (fun () ->
            mark_ready t name entry;
            Waitq.signal t.activity)
      in
      entry.arrival_hook <- Some hook;
      (* Messages may have queued before the port joined the group. *)
      if Port.queued entry.port > 0 then begin
        mark_ready t name entry;
        Waitq.signal t.activity
      end
    end

let disable t name =
  match find t name with
  | None -> invalid_arg "Port_space.disable: unknown name"
  | Some entry ->
    entry.is_enabled <- false;
    (match entry.arrival_hook with
    | Some h ->
      Port.cancel_on_arrival entry.port h;
      entry.arrival_hook <- None
    | None -> ())

let pop_ready t =
  let rec go () =
    match Queue.take_opt t.ready with
    | None -> None
    | Some name -> (
      match find t name with
      | None -> go () (* deallocated since queued; its flag died with it *)
      | Some entry ->
        entry.in_ready <- false;
        if entry.is_enabled && not entry.dead && Port.queued entry.port > 0 then
          Some (name, entry.port)
        else go () (* stale: consumed elsewhere, disabled, or dead *))
  in
  go ()

let requeue_ready t name =
  match find t name with
  | Some entry when entry.is_enabled && not entry.dead && Port.queued entry.port > 0 ->
    mark_ready t name entry
  | Some _ | None -> ()

let enabled t =
  Hashtbl.fold (fun name e acc -> if e.is_enabled && not e.dead then name :: acc else acc) t.names []
  |> List.sort compare

let enabled_ports t =
  Hashtbl.fold
    (fun name e acc -> if e.is_enabled && not e.dead then (name, e.port) :: acc else acc)
    t.names []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let messages_waiting t =
  enabled_ports t |> List.filter (fun (_, p) -> Port.queued p > 0) |> List.map fst

let status t name =
  match find t name with
  | None -> None
  | Some e ->
    Some
      {
        st_queued = (if e.dead then 0 else Port.queued e.port);
        st_backlog = (if e.dead then 0 else Port.backlog e.port);
        st_has_receive = e.receive;
        st_enabled = e.is_enabled;
      }

let set_backlog t name n =
  match find t name with
  | None -> invalid_arg "Port_space.set_backlog: unknown name"
  | Some e ->
    if not e.receive then invalid_arg "Port_space.set_backlog: no receive right";
    if not e.dead then Port.set_backlog e.port n

let next_notification t ?timeout () =
  match timeout with
  | None -> Some (Mailbox.recv t.notifications)
  | Some timeout -> Mailbox.recv_timeout t.notifications ~timeout
let pending_notifications t = Mailbox.length t.notifications

let destroy t =
  let all = Hashtbl.fold (fun name _ acc -> name :: acc) t.names [] |> List.sort compare in
  List.iter (fun name -> deallocate t name) all
