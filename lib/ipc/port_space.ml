module Waitq = Mach_sim.Waitq

type name = int

type status = { st_queued : int; st_backlog : int; st_has_receive : bool; st_enabled : bool }

type entry = {
  port : Message.port;
  mutable send : bool;
  mutable receive : bool;
  mutable is_enabled : bool;
  mutable in_ready : bool;  (** name is on the ready FIFO *)
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
  }

let context t = t.ctx
let activity t = t.activity

let fresh_name t =
  let n = t.next_name in
  t.next_name <- n + 1;
  n

(* A name is dead when its port is. *)
let dead entry = not (Port.alive entry.port)

let register t port ~send ~receive =
  let name = fresh_name t in
  let entry = { port; send; receive; is_enabled = false; in_ready = false; arrival_hook = None } in
  Hashtbl.replace t.names name entry;
  Hashtbl.replace t.by_port (Port.id port) name;
  name

let allocate t ?backlog () =
  let port = Port.create t.ctx ~home:t.host ?backlog ~drop:Message.discard () in
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

let detach_arrival entry =
  match entry.arrival_hook with
  | Some h ->
    Port.cancel_on_arrival entry.port h;
    entry.arrival_hook <- None
  | None -> ()

let deallocate t name =
  match find t name with
  | None -> invalid_arg "Port_space.deallocate: unknown name"
  | Some entry ->
    detach_arrival entry;
    Hashtbl.remove t.names name;
    Hashtbl.remove t.by_port (Port.id entry.port);
    (* Dropping the receive right destroys the port (a no-op if it is
       already dead), and the port's death hooks tell whoever listens. *)
    if entry.receive then Port.destroy entry.port

let lookup t name =
  match find t name with
  | Some entry when not (dead entry) -> Some entry.port
  | Some _ | None -> None

let lookup_exn t name =
  match lookup t name with
  | Some p -> p
  | None -> invalid_arg "Port_space.lookup_exn: unknown or dead name"

let name_of t port = Hashtbl.find_opt t.by_port (Port.id port)
let has_receive t name = match find t name with Some e -> e.receive && not (dead e) | None -> false
let has_send t name = match find t name with Some e -> e.send && not (dead e) | None -> false

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
    if not entry.is_enabled && not (dead entry) then begin
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
    detach_arrival entry

let pop_ready t =
  let rec go () =
    match Queue.take_opt t.ready with
    | None -> None
    | Some name -> (
      match find t name with
      | None -> go () (* deallocated since queued; its flag died with it *)
      | Some entry ->
        entry.in_ready <- false;
        if entry.is_enabled && not (dead entry) && Port.queued entry.port > 0 then
          Some (name, entry.port)
        else go () (* stale: consumed elsewhere, disabled, or dead *))
  in
  go ()

let requeue_ready t name =
  match find t name with
  | Some entry when entry.is_enabled && not (dead entry) && Port.queued entry.port > 0 ->
    mark_ready t name entry
  | Some _ | None -> ()

let enabled t =
  Hashtbl.fold (fun name e acc -> if e.is_enabled && not (dead e) then name :: acc else acc) t.names []
  |> List.sort compare

let status t name =
  match find t name with
  | None -> None
  | Some e ->
    Some
      {
        st_queued = (if dead e then 0 else Port.queued e.port);
        st_backlog = (if dead e then 0 else Port.backlog e.port);
        st_has_receive = e.receive;
        st_enabled = e.is_enabled;
      }

let set_backlog t name n =
  match find t name with
  | None -> invalid_arg "Port_space.set_backlog: unknown name"
  | Some e ->
    if not e.receive then invalid_arg "Port_space.set_backlog: no receive right";
    Port.set_backlog e.port n

let destroy t =
  let all = Hashtbl.fold (fun name _ acc -> name :: acc) t.names [] |> List.sort compare in
  List.iter (fun name -> deallocate t name) all
