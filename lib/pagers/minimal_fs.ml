module Message = Mach_ipc.Message
module Port_space = Mach_ipc.Port_space
module Codec = Mach_util.Codec
module Syscalls = Mach_kernel.Syscalls
module Task = Mach_kernel.Task
module Rpc = Mach_kernel.Rpc
module Mos = Mach.Memory_object_server
module Fs_layout = Mach_fs.Fs_layout

(* RPC message ids. *)
let id_read_file = 3001
let id_write_file = 3002
let id_list_files = 3003
let id_open_object = 3004

type file = {
  f_name : string;
  mutable f_mapping : (int * int) option;  (** server's own mapping (addr, size) *)
}

module Rt = Mach.Pager_runtime

type t = {
  rt : file Rt.t;
  srv : Mos.t;
  fs : Fs_layout.t;
  service : Message.port;
  by_name : (string, file Rt.obj) Hashtbl.t;
}

let server_task t = Mos.task t.srv
let service_port t = t.service
let fs t = t.fs
let runtime_stats t = Rt.stats t.rt

(* --- pager policy --------------------------------------------------------
   The protocol plumbing (registry, request splitting, coalesced
   replies, request-port tracking) lives in the shared runtime; the
   filesystem contributes only block-backed page reads and run writes. *)

let policy get ~enable_cache =
  {
    Rt.default_policy with
    (* Let the kernel keep file pages cached after unmapping: the heart
       of the §9 claim (ablatable via [enable_cache]). *)
    Rt.p_may_cache = (if enable_cache then Some true else None);
    p_read =
      (fun rt o ~request:_ ~page ~npages ~desired_access:_ ->
        (* The kernel's read cluster comes in as one run: one range
           read, one seek per disk-contiguous piece. Past-EOF bytes read
           as zeroes, padded out to a whole page so the kernel keeps the
           last one; a missing file is unavailable for the whole range
           (the runtime coalesces the holes). Nothing is kept across
           calls. *)
        let t = get () in
        let ps = Rt.page_size rt in
        match Fs_layout.read_range t.fs o.Rt.o_data.f_name ~off:(page * ps) ~len:(npages * ps) with
        | None -> Rt.Unavailable
        | Some data ->
          let len = Bytes.length data in
          let whole = max ps ((len + ps - 1) / ps * ps) in
          if len = whole then Rt.Data data
          else begin
            let padded = Bytes.make whole '\000' in
            Bytes.blit data 0 padded 0 len;
            Rt.Data padded
          end);
    p_write =
      (fun _ o ~offset ~data ->
        (* Pageout of a directly-mapped file (footnote 7 mappings):
           persist the dirty run. Without this, paged-out file
           modifications would silently vanish from the cache-object
           lifecycle. The kernel clustered the run; the range write
           keeps it clustered on disk, one seek per contiguous piece,
           so the release comes back before the rescue timer fires. *)
        let t = get () in
        try Fs_layout.write_range t.fs o.Rt.o_data.f_name ~off:offset data
        with Fs_layout.Fs_error _ -> ());
  }

(* --- RPC side ----------------------------------------------------------- *)

let get_file t name =
  match Hashtbl.find_opt t.by_name name with
  | Some o -> o
  | None ->
    let f_object = Mos.create_memory_object t.srv () in
    let o = Rt.register t.rt ~memory_object:f_object { f_name = name; f_mapping = None } in
    Hashtbl.replace t.by_name name o;
    o

let file_object t name = (get_file t name).Rt.o_port

(* The server maps the file's memory object into its own address space
   once and keeps the mapping; replies transfer it copy-on-write. *)
let server_mapping t (o : file Rt.obj) ~size =
  let file = o.Rt.o_data in
  match file.f_mapping with
  | Some (addr, msize) when msize >= size -> addr
  | other ->
    (match other with
    | Some (addr, msize) -> Syscalls.vm_deallocate (server_task t) ~addr ~size:msize
    | None -> ());
    let addr =
      Syscalls.vm_allocate_with_pager (server_task t) ~size ~anywhere:true
        ~memory_object:o.Rt.o_port ~offset:0 ()
    in
    file.f_mapping <- Some (addr, size);
    addr

(* Each operation answers [Ok items] (sent after the status) or
   [Error detail]. *)
let handle_read_file t name =
  if not (Fs_layout.exists t.fs name) then Error "no such file"
  else begin
    let size = Option.value ~default:0 (Fs_layout.file_size t.fs name) in
    let file = get_file t name in
    if size = 0 then Ok [ Rpc.int 0 ]
    else
      let addr = server_mapping t file ~size in
      Ok [ Rpc.int size; Syscalls.ool_region (server_task t) ~addr ~size ]
  end

let handle_write_file t name data =
  Fs_layout.write_file t.fs name data;
  (match Hashtbl.find_opt t.by_name name with
  | Some o ->
    (* Invalidate stale cached pages everywhere this object is known. *)
    let len = max (Bytes.length data) 1 in
    List.iter
      (fun request -> Rt.flush_request t.rt ~request ~offset:0 ~length:len)
      (Rt.requests o)
  | None -> ());
  Ok []

(* Hand the client the memory object itself: mapping it with
   vm_allocate_with_pager gives direct read/write access to the file
   object, not a copy (the paper's footnote 7). *)
let handle_open_object t name =
  if not (Fs_layout.exists t.fs name) then Error "no such file"
  else begin
    let size = Option.value ~default:0 (Fs_layout.file_size t.fs name) in
    let o = get_file t name in
    Ok
      [
        Message.Caps [ { Message.cap_port = o.Rt.o_port; cap_right = Message.Send_right } ];
        Rpc.int size;
      ]
  end

let handle_list t =
  let files = Fs_layout.list_files t.fs in
  Ok
    [
      Message.data (fun e ->
          Codec.Enc.int e (List.length files);
          List.iter (Codec.Enc.string e) files);
    ]

let on_other t (msg : Message.t) =
  let id = msg.Message.header.msg_id in
  match Message.data_exn msg with
  | exception Not_found -> ()
  | payload ->
    let d = Codec.Dec.of_bytes payload in
    let answer =
      try
        if id = id_read_file then handle_read_file t (Codec.Dec.string d)
        else if id = id_write_file then begin
          let name = Codec.Dec.string d in
          handle_write_file t name (Codec.Dec.bytes d)
        end
        else if id = id_list_files then handle_list t
        else if id = id_open_object then handle_open_object t (Codec.Dec.string d)
        else Error "unknown operation"
      with
      | Codec.Dec.Truncated -> Error "malformed request"
      | Fs_layout.Fs_error reason -> Error reason
    in
    Rpc.reply ~send:(Syscalls.msg_send (server_task t)) msg
      (match answer with
      | Ok items -> Rpc.status ~detail:"" true :: items
      | Error detail -> [ Rpc.status ~detail false ])

let start kernel ?(name = "fs-server") ?(enable_cache = true) ?(service_threads = 1) ~disk ~format
    () =
  let srv_task = Task.create kernel ~name () in
  Mach_kernel.Kernel.register_disk kernel disk;
  let fs = if format then Fs_layout.format disk ~max_files:256 else Fs_layout.mount disk in
  let service_name = Syscalls.port_allocate srv_task ~backlog:128 () in
  Syscalls.port_enable srv_task service_name;
  let service = Port_space.lookup_exn (Task.space srv_task) service_name in
  let t_ref = ref None in
  let get () = match !t_ref with Some t -> t | None -> assert false in
  let rt, srv =
    Mos.serve ~service_threads
      ~on_other:(fun _rt _srv msg -> on_other (get ()) msg)
      srv_task
      (policy get ~enable_cache)
  in
  let t = { rt; srv; fs; service; by_name = Hashtbl.create 64 } in
  t_ref := Some t;
  t

(* --- client ------------------------------------------------------------- *)

module Client = struct
  type error = [ `No_such_file | `Server_error of string | `Ipc_failure ]

  let pp_error fmt = function
    | `No_such_file -> Format.fprintf fmt "no such file"
    | `Server_error s -> Format.fprintf fmt "server error: %s" s
    | `Ipc_failure -> Format.fprintf fmt "ipc failure"

  (* Send one marshalled request; [k] reads the results off the reply. *)
  let call task ~server ~msg_id enc k =
    Result.map_error
      (function
        | `Refused "no such file" -> `No_such_file
        | `Refused detail -> `Server_error detail
        | `Malformed -> `Server_error "malformed reply"
        | (`Ipc_failure | `Server_error _) as e -> e)
      (Result.bind (Rpc.call task ~dest:server ~msg_id [ Message.data enc ]) k)

  let read_file task ~server name =
    call task ~server ~msg_id:id_read_file (fun e -> Codec.Enc.string e name) (fun reply ->
        Result.bind (Rpc.decode reply Codec.Dec.int) (fun size ->
            if size = 0 then Ok (0, 0)
            else
              match Syscalls.map_ool task reply with
              | [ (addr, _) ] -> Ok (addr, size)
              | _ -> Error (`Server_error "missing mapped data")))

  let map_file task ~server name =
    call task ~server ~msg_id:id_open_object (fun e -> Codec.Enc.string e name) (fun reply ->
        match (reply.Message.body, Rpc.decode reply Codec.Dec.int) with
        | _, Ok 0 -> Ok (0, 0)
        | Message.Caps [ cap ] :: _, Ok size ->
          let memory_object = cap.Message.cap_port in
          let addr =
            Syscalls.vm_allocate_with_pager task ~size ~anywhere:true ~memory_object ~offset:0 ()
          in
          Ok (addr, size)
        | _ -> Error `Malformed)

  let write_file task ~server name data =
    call task ~server ~msg_id:id_write_file
      (fun e ->
        Codec.Enc.string e name;
        Codec.Enc.bytes e data)
      (fun _ -> Ok ())

  let list_files task ~server =
    call task ~server ~msg_id:id_list_files (fun e -> Codec.Enc.string e "") (fun reply ->
        Rpc.decode reply (fun d -> List.init (Codec.Dec.int d) (fun _ -> Codec.Dec.string d)))
end
