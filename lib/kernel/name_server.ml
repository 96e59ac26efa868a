open Ktypes
module Message = Mach_ipc.Message
module Port = Mach_ipc.Port
module Port_space = Mach_ipc.Port_space
module Codec = Mach_util.Codec
module Engine = Mach_sim.Engine

let id_check_in = 3301
let id_look_up = 3302
let id_check_out = 3303

type t = {
  ns_task : task;
  ns_service : Message.port;
  table : (string, Message.port) Hashtbl.t;
}

let service_port t = t.ns_service

let registered t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort String.compare

(* [Some items] answers success with [items] after the status. *)
let serve t (msg : Message.t) name =
  let id = msg.Message.header.msg_id in
  if id = id_check_in then
    match Message.caps msg with
    | { Message.cap_port; _ } :: _ ->
      (* Drop any dead stale entry, then (re)register. *)
      Hashtbl.replace t.table name cap_port;
      Some []
    | [] -> None
  else if id = id_look_up then
    match Hashtbl.find_opt t.table name with
    | Some port when Port.alive port ->
      Some [ Message.Caps [ { Message.cap_port = port; cap_right = Message.Send_right } ] ]
    | Some _ ->
      Hashtbl.remove t.table name;
      None
    | None -> None
  else if id = id_check_out then begin
    Hashtbl.remove t.table name;
    Some []
  end
  else None

let handle t msg =
  Rpc.reply ~send:(Syscalls.msg_send t.ns_task) msg
    (match Result.map (serve t msg) (Rpc.decode msg Codec.Dec.string) with
    | Ok (Some items) -> Rpc.status true :: items
    | Ok None | Error `Malformed -> [ Rpc.status false ])

let start kernel ?(name = "name-server") () =
  let ns_task = Task.create kernel ~name () in
  let svc = Syscalls.port_allocate ns_task ~backlog:128 () in
  Syscalls.port_enable ns_task svc;
  let ns_service = Port_space.lookup_exn ns_task.t_space svc in
  let t = { ns_task; ns_service; table = Hashtbl.create 32 } in
  Engine.spawn kernel.k_engine ~name:(name ^ ".main") (fun () ->
      let rec loop () =
        (match Syscalls.msg_receive ns_task ~from:(`Port svc) () with
        | Ok msg -> handle t msg
        | Error _ -> ());
        loop ()
      in
      loop ());
  t

module Client = struct
  type error = [ `Not_found | `Ipc_failure | `Malformed ]

  let pp_error fmt = function
    | `Not_found -> Format.fprintf fmt "name not found"
    | `Ipc_failure -> Format.fprintf fmt "ipc failure"
    | `Malformed -> Format.fprintf fmt "malformed reply"

  let call task ~server ~msg_id name extra =
    Rpc.call task ~dest:server ~msg_id (Message.data (fun e -> Codec.Enc.string e name) :: extra)
    |> Result.map_error (function `Refused _ -> `Not_found | (`Malformed | `Ipc_failure) as e -> e)

  let check_in task ~server name port =
    call task ~server ~msg_id:id_check_in name
      [ Message.Caps [ { Message.cap_port = port; cap_right = Message.Send_right } ] ]
    |> Result.map ignore

  let look_up task ~server name =
    match call task ~server ~msg_id:id_look_up name [] with
    | Ok { Message.body = Message.Caps [ cap ] :: _; _ } -> Ok cap.Message.cap_port
    | Ok _ -> Error `Malformed
    | Error e -> Error e

  let check_out task ~server name =
    Result.map ignore (call task ~server ~msg_id:id_check_out name [])
end
