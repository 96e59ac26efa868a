(* The payload of a kernel copy object is owned by whichever layer made
   the snapshot (the VM layer's vm_map_copyin, or the network transport
   exporting a memory object); extensibility keeps this module free of a
   dependency on the VM structures. *)
type copy_payload = ..

type t = { header : header; body : item list }

and header = {
  dest : port;
  reply : port option;
  msg_id : int;
  mutable handoff : Mach_sim.Sched.reservation option;
      (* transport-set: delivered to a blocked receiver *)
  mutable trace_span : int;  (* transport-set: sender's causal span id, -1 if none *)
}

and item =
  | Data of bytes
  | Caps of cap list
  | Ool of bytes
  | Ool_region of ool_region
  | Ool_copy of copy_object

and ool_region = { src_task : int; src_addr : int; region_size : int }
and copy_object = { cp_size : int; cp_payload : copy_payload; cp_discard : unit -> unit }
and cap = { cap_port : port; cap_right : right }
and right = Send_right | Receive_right
and port = t Port.t

type copy_payload += Net_copy of { nc_object : port }

(* Wire size of a copy-object handle: a port name and a length. *)
let copy_handle_bytes = 16

let make ?reply ?(msg_id = 0) ~dest body =
  { header = { dest; reply; msg_id; handoff = None; trace_span = -1 }; body }

let data f =
  let e = Mach_util.Codec.Enc.create () in
  f e;
  Data (Mach_util.Codec.Enc.to_bytes e)

let inline_bytes t =
  List.fold_left
    (fun acc item ->
      match item with
      | Data b -> acc + Bytes.length b
      | Ool _ | Caps _ | Ool_region _ | Ool_copy _ -> acc)
    0 t.body

let mapped_bytes t =
  List.fold_left
    (fun acc item ->
      match item with
      | Ool b -> acc + Bytes.length b
      | Ool_region r -> acc + r.region_size
      | Ool_copy c -> acc + c.cp_size
      | Data _ | Caps _ -> acc)
    0 t.body

let carried_mapped_bytes t =
  List.fold_left
    (fun acc item ->
      match item with
      | Ool b -> acc + Bytes.length b
      | Ool_region _ | Ool_copy _ | Data _ | Caps _ -> acc)
    0 t.body

let wire_bytes t =
  List.fold_left
    (fun acc item ->
      match item with
      | Data b | Ool b -> acc + Bytes.length b
      | Ool_region _ -> acc + copy_handle_bytes
      | Ool_copy _ -> acc + copy_handle_bytes
      | Caps _ -> acc)
    0 t.body

let total_bytes t = inline_bytes t + mapped_bytes t

let data_exn t =
  let rec find = function
    | Data b :: _ -> b
    | _ :: rest -> find rest
    | [] -> raise Not_found
  in
  find t.body

let caps t =
  List.concat_map
    (function Caps cs -> cs | Data _ | Ool _ | Ool_region _ | Ool_copy _ -> [])
    t.body

let ool_payloads t =
  List.filter_map
    (function Ool b -> Some b | Data _ | Caps _ | Ool_region _ | Ool_copy _ -> None)
    t.body

let discard t =
  List.iter
    (function Ool_copy c -> c.cp_discard () | Data _ | Caps _ | Ool _ | Ool_region _ -> ())
    t.body

let pp fmt t =
  Format.fprintf fmt "msg{id=%d dest=%a inline=%dB mapped=%dB caps=%d}" t.header.msg_id Port.pp
    t.header.dest (inline_bytes t) (mapped_bytes t)
    (List.length (caps t))
