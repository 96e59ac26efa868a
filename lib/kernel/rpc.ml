open Ktypes
module Message = Mach_ipc.Message
module Port_space = Mach_ipc.Port_space
module Codec = Mach_util.Codec

let status ?detail ok =
  Message.data (fun e ->
      Codec.Enc.bool e ok;
      Option.iter (Codec.Enc.string e) detail)

let int v = Message.data (fun e -> Codec.Enc.int e v)

let decode msg f =
  match f (Codec.Dec.of_bytes (Message.data_exn msg)) with
  | v -> Ok v
  | exception (Not_found | Codec.Dec.Truncated) -> Error `Malformed

let reply ~send (msg : Message.t) items =
  match msg.Message.header.reply with
  | None -> ()
  | Some dest -> ignore (send (Message.make ~msg_id:msg.Message.header.msg_id ~dest items))

let call task ~dest ~msg_id items =
  let reply_name = Syscalls.port_allocate task () in
  let reply_port = Port_space.lookup_exn task.t_space reply_name in
  let r = Syscalls.msg_rpc task (Message.make ~reply:reply_port ~msg_id ~dest items) () in
  Syscalls.port_deallocate task reply_name;
  match r with
  | Error _ -> Error `Ipc_failure
  | Ok ({ Message.body = Message.Data st :: rest; _ } as answer) -> (
    let d = Codec.Dec.of_bytes st in
    match Codec.Dec.bool d with
    | true -> Ok { answer with Message.body = rest }
    | false -> Error (`Refused (try Codec.Dec.string d with Codec.Dec.Truncated -> ""))
    | exception Codec.Dec.Truncated -> Error `Malformed)
  | Ok _ -> Error `Malformed
