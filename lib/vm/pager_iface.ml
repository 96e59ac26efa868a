module Message = Mach_ipc.Message
module Codec = Mach_util.Codec
module Prot = Mach_hw.Prot

type kernel_to_manager =
  | Init of { memory_object : Message.port; request : Message.port; name : Message.port }
  | Data_request of {
      memory_object : Message.port;
      request : Message.port;
      offset : int;
      length : int;
      desired_access : Prot.t;
    }
  | Data_write of { memory_object : Message.port; offset : int; data : bytes; write_id : int }
  | Data_unlock of {
      memory_object : Message.port;
      request : Message.port;
      offset : int;
      length : int;
      desired_access : Prot.t;
    }
  | Create of {
      new_memory_object : Message.port;
      request : Message.port;
      name : Message.port;
      size : int;
    }
  | Lock_completed of { memory_object : Message.port; offset : int; length : int }

type manager_to_kernel =
  | Data_provided of { offset : int; data : bytes; lock_value : Prot.t }
  | Data_lock of { offset : int; length : int; lock_value : Prot.t }
  | Flush_request of { offset : int; length : int }
  | Clean_request of { offset : int; length : int }
  | Cache of { may_cache : bool }
  | Data_unavailable of { offset : int; size : int }
  | Release_write of { write_id : int }

exception Malformed of string

(* Message ids. Kernel→manager in 21xx, manager→kernel in 22xx. *)
let id_init = 2100
let id_data_request = 2101
let id_data_write = 2102
let id_data_unlock = 2103
let id_create = 2104
let id_lock_completed = 2105
let id_data_provided = 2200
let id_data_lock = 2201
let id_flush_request = 2202
let id_clean_request = 2203
let id_cache = 2204
let id_data_unavailable = 2205
let id_release_write = 2206

let is_pager_msg (m : Message.t) =
  let id = m.header.msg_id in
  id >= 2100 && id <= 2206

let send_cap port = { Message.cap_port = port; cap_right = Message.Send_right }
let receive_cap port = { Message.cap_port = port; cap_right = Message.Receive_right }

let ool data = Message.Ool data

let encode_k2m ~reply call ~dest =
  match call with
  | Init { memory_object = _; request; name } ->
    Message.make ?reply ~msg_id:id_init ~dest [ Message.Caps [ send_cap request; send_cap name ] ]
  | Data_request { memory_object = _; request; offset; length; desired_access } ->
    Message.make ?reply ~msg_id:id_data_request ~dest
      [
        Message.Caps [ send_cap request ];
        Message.data (fun e ->
            Codec.Enc.int e offset;
            Codec.Enc.int e length;
            Codec.Enc.u8 e (Prot.to_int desired_access));
      ]
  | Data_write { memory_object = _; offset; data; write_id } ->
    Message.make ?reply ~msg_id:id_data_write ~dest
      [
        Message.data (fun e ->
            Codec.Enc.int e offset;
            Codec.Enc.int e write_id);
        ool data;
      ]
  | Data_unlock { memory_object = _; request; offset; length; desired_access } ->
    Message.make ?reply ~msg_id:id_data_unlock ~dest
      [
        Message.Caps [ send_cap request ];
        Message.data (fun e ->
            Codec.Enc.int e offset;
            Codec.Enc.int e length;
            Codec.Enc.u8 e (Prot.to_int desired_access));
      ]
  | Create { new_memory_object; request; name; size } ->
    Message.make ?reply ~msg_id:id_create ~dest
      [
        Message.Caps [ receive_cap new_memory_object; send_cap request; send_cap name ];
        Message.data (fun e -> Codec.Enc.int e size);
      ]
  | Lock_completed { memory_object = _; offset; length } ->
    Message.make ?reply ~msg_id:id_lock_completed ~dest
      [
        Message.data (fun e ->
            Codec.Enc.int e offset;
            Codec.Enc.int e length);
      ]

let encode_m2k call ~request =
  let dest = request in
  match call with
  | Data_provided { offset; data; lock_value } ->
    Message.make ~msg_id:id_data_provided ~dest
      [
        Message.data (fun e ->
            Codec.Enc.int e offset;
            Codec.Enc.u8 e (Prot.to_int lock_value));
        ool data;
      ]
  | Data_lock { offset; length; lock_value } ->
    Message.make ~msg_id:id_data_lock ~dest
      [
        Message.data (fun e ->
            Codec.Enc.int e offset;
            Codec.Enc.int e length;
            Codec.Enc.u8 e (Prot.to_int lock_value));
      ]
  | Flush_request { offset; length } ->
    Message.make ~msg_id:id_flush_request ~dest
      [
        Message.data (fun e ->
            Codec.Enc.int e offset;
            Codec.Enc.int e length);
      ]
  | Clean_request { offset; length } ->
    Message.make ~msg_id:id_clean_request ~dest
      [
        Message.data (fun e ->
            Codec.Enc.int e offset;
            Codec.Enc.int e length);
      ]
  | Cache { may_cache } ->
    Message.make ~msg_id:id_cache ~dest [ Message.data (fun e -> Codec.Enc.bool e may_cache) ]
  | Data_unavailable { offset; size } ->
    Message.make ~msg_id:id_data_unavailable ~dest
      [
        Message.data (fun e ->
            Codec.Enc.int e offset;
            Codec.Enc.int e size);
      ]
  | Release_write { write_id } ->
    Message.make ~msg_id:id_release_write ~dest [ Message.data (fun e -> Codec.Enc.int e write_id) ]

let payload m =
  match Message.data_exn m with
  | b -> Codec.Dec.of_bytes b
  | exception Not_found -> raise (Malformed "missing data item")

let first_ool m =
  match Message.ool_payloads m with
  | b :: _ -> b
  | [] -> raise (Malformed "missing out-of-line data")

let caps_exn m n =
  let caps = Message.caps m in
  if List.length caps < n then raise (Malformed "missing capabilities");
  caps

let wrap f = try f () with Codec.Dec.Truncated -> raise (Malformed "truncated payload")

let decode_k2m (m : Message.t) =
  let dest = m.header.dest in
  let id = m.header.msg_id in
  if id = id_init then begin
    match caps_exn m 2 with
    | [ r; n ] -> Init { memory_object = dest; request = r.cap_port; name = n.cap_port }
    | _ -> raise (Malformed "pager_init: bad capabilities")
  end
  else if id = id_data_request then
    wrap (fun () ->
        let d = payload m in
        let offset = Codec.Dec.int d in
        let length = Codec.Dec.int d in
        let desired_access = Prot.of_int (Codec.Dec.u8 d) in
        match caps_exn m 1 with
        | r :: _ ->
          Data_request { memory_object = dest; request = r.cap_port; offset; length; desired_access }
        | [] -> raise (Malformed "pager_data_request: bad capabilities"))
  else if id = id_data_write then
    wrap (fun () ->
        let d = payload m in
        let offset = Codec.Dec.int d in
        let write_id = Codec.Dec.int d in
        Data_write { memory_object = dest; offset; data = first_ool m; write_id })
  else if id = id_data_unlock then
    wrap (fun () ->
        let d = payload m in
        let offset = Codec.Dec.int d in
        let length = Codec.Dec.int d in
        let desired_access = Prot.of_int (Codec.Dec.u8 d) in
        match caps_exn m 1 with
        | r :: _ ->
          Data_unlock { memory_object = dest; request = r.cap_port; offset; length; desired_access }
        | [] -> raise (Malformed "pager_data_unlock: bad capabilities"))
  else if id = id_create then
    wrap (fun () ->
        let d = payload m in
        let size = Codec.Dec.int d in
        match caps_exn m 3 with
        | [ o; r; n ] ->
          Create { new_memory_object = o.cap_port; request = r.cap_port; name = n.cap_port; size }
        | _ -> raise (Malformed "pager_create: bad capabilities"))
  else if id = id_lock_completed then
    wrap (fun () ->
        let d = payload m in
        let offset = Codec.Dec.int d in
        let length = Codec.Dec.int d in
        Lock_completed { memory_object = dest; offset; length })
  else raise (Malformed (Printf.sprintf "unknown kernel-to-manager id %d" id))

let decode_m2k (m : Message.t) =
  let id = m.header.msg_id in
  if id = id_data_provided then
    wrap (fun () ->
        let d = payload m in
        let offset = Codec.Dec.int d in
        let lock_value = Prot.of_int (Codec.Dec.u8 d) in
        Data_provided { offset; data = first_ool m; lock_value })
  else if id = id_data_lock then
    wrap (fun () ->
        let d = payload m in
        let offset = Codec.Dec.int d in
        let length = Codec.Dec.int d in
        let lock_value = Prot.of_int (Codec.Dec.u8 d) in
        Data_lock { offset; length; lock_value })
  else if id = id_flush_request then
    wrap (fun () ->
        let d = payload m in
        let offset = Codec.Dec.int d in
        let length = Codec.Dec.int d in
        Flush_request { offset; length })
  else if id = id_clean_request then
    wrap (fun () ->
        let d = payload m in
        let offset = Codec.Dec.int d in
        let length = Codec.Dec.int d in
        Clean_request { offset; length })
  else if id = id_cache then
    wrap (fun () ->
        let d = payload m in
        Cache { may_cache = Codec.Dec.bool d })
  else if id = id_data_unavailable then
    wrap (fun () ->
        let d = payload m in
        let offset = Codec.Dec.int d in
        let size = Codec.Dec.int d in
        Data_unavailable { offset; size })
  else if id = id_release_write then
    wrap (fun () ->
        let d = payload m in
        Release_write { write_id = Codec.Dec.int d })
  else raise (Malformed (Printf.sprintf "unknown manager-to-kernel id %d" id))
