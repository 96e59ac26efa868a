module Engine = Mach_sim.Engine
module Port = Mach_ipc.Port
module Port_space = Mach_ipc.Port_space
module Message = Mach_ipc.Message
module Transport = Mach_ipc.Transport
module Disk = Mach_hw.Disk
module Kctx = Mach_vm.Kctx
module Pager_iface = Mach_vm.Pager_iface
module Rt = Mach_vm.Pager_runtime

(* The default pager is a policy module over the shared pager runtime,
   like every other manager — the runtime owns the object registry and
   the request splitting; this file only maps pages to paging-disk
   blocks. It differs from the user-level managers in transport alone:
   being part of the kernel image it pumps its own receive loop instead
   of going through [Memory_object_server]. *)

type managed = { blocks : (int, int) Hashtbl.t  (** object offset → disk block *) }

type t = {
  kctx : Kctx.t;
  disk : Disk.t;
  space : Port_space.t;
  node : Transport.node;
  rt : managed Rt.t;
  free_blocks : int Queue.t;
  mutable stored : int;
}

let alloc_block t =
  match Queue.take_opt t.free_blocks with
  | Some b -> b
  | None -> failwith "default pager: paging disk full"

(* Paging blocks of a dead object go back to the free pool. *)
let release_blocks t (o : managed Rt.obj) =
  Hashtbl.iter
    (fun _ block ->
      t.stored <- t.stored - 1;
      Queue.add block t.free_blocks)
    o.Rt.o_data.blocks;
  Hashtbl.reset o.Rt.o_data.blocks;
  Rt.unregister t.rt o

let policy get =
  {
    Rt.default_policy with
    Rt.p_read =
      (fun rt o ~request:_ ~page ~desired_access:_ ->
        let t = get () in
        let ps = Rt.page_size rt in
        match Hashtbl.find_opt o.Rt.o_data.blocks (page * ps) with
        | Some block ->
          let data = Disk.read t.disk ~block in
          Rt.Data (Bytes.sub data 0 (min ps (Bytes.length data)))
        | None ->
          (* Never paged out: the kernel zero-fills. *)
          Rt.Unavailable);
    p_write =
      (fun rt o ~offset ~data ->
        (* Paging blocks come from a free pool, so a run's pages are not
           disk-contiguous: store each page with its own write. *)
        let t = get () in
        Rt.iter_pages rt ~offset ~data (fun ~page ~pos ~len ->
            let off = page * Rt.page_size rt in
            let block =
              match Hashtbl.find_opt o.Rt.o_data.blocks off with
              | Some b -> b
              | None ->
                let b = alloc_block t in
                Hashtbl.replace o.Rt.o_data.blocks off b;
                t.stored <- t.stored + 1;
                b
            in
            Disk.write t.disk ~block (Bytes.sub data pos len)));
    p_death = (fun _ o _ -> release_blocks (get ()) o);
  }

let adopt t ~memory_object ~request =
  (* When the kernel terminates the object it destroys the request
     port; reclaim this object's paging blocks at that point. *)
  ignore (Port.on_death request (fun () -> Rt.handle_port_death t.rt request));
  let o = Rt.register t.rt ~memory_object { blocks = Hashtbl.create 16 } in
  Rt.add_request o request

let handle t (msg : Message.t) =
  match Pager_iface.decode_k2m msg with
  | exception Pager_iface.Malformed _ -> ()
  | Pager_iface.Create { new_memory_object; request; name = _; size = _ } ->
    let name_in_space = Port_space.insert t.space new_memory_object Message.Receive_right in
    Port_space.enable t.space name_in_space;
    adopt t ~memory_object:new_memory_object ~request
  | Pager_iface.Init { memory_object; request; name = _ } ->
    (* A default pager can also be used as an ordinary manager. *)
    adopt t ~memory_object ~request
  | Pager_iface.Data_request { memory_object; request; offset; length; desired_access } ->
    Rt.handle_data_request t.rt ~memory_object ~request ~offset ~length ~desired_access
  | Pager_iface.Data_write { memory_object; offset; data; write_id } ->
    (* Route the release to the kernel that shipped the run; an object
       already gone (terminated mid-write) still releases so the
       kernel's holding frames come back promptly (§6.2.2). *)
    let target =
      match msg.Message.header.reply with
      | Some r -> Some r
      | None -> (
        match Rt.find t.rt memory_object with
        | Some o -> ( match Rt.requests o with r :: _ -> Some r | [] -> None)
        | None -> None)
    in
    let release =
      match target with
      | Some request -> fun () -> Rt.release_write t.rt ~request ~write_id
      | None -> fun () -> ()
    in
    Rt.handle_data_write t.rt ~memory_object ~offset ~data ~release
  | Pager_iface.Data_unlock { memory_object; request; offset; length; desired_access } ->
    Rt.handle_data_unlock t.rt ~memory_object ~request ~offset ~length ~desired_access
  | Pager_iface.Lock_completed { memory_object; offset; length } ->
    Rt.handle_lock_completed t.rt ~memory_object ~request:msg.Message.header.reply ~offset
      ~length

let start kctx ~disk =
  let ctx = kctx.Kctx.ctx in
  let space = Port_space.create ctx ~home:kctx.Kctx.host in
  let node = kctx.Kctx.node in
  (* Replies must not block the pager loop; a full queue retries in a
     detached thread, a dead port is a dropped reply the runtime
     counts. *)
  let send msg =
    match Transport.send node ~timeout:0.0 msg with
    | Ok () -> Ok ()
    | Error Transport.Send_timed_out ->
      Engine.spawn kctx.Kctx.engine ~name:"default-pager-send" (fun () ->
          match Transport.send node msg with Ok () | Error _ -> ());
      Ok ()
    | Error Transport.Send_invalid_port -> Error ()
  in
  let t_ref = ref None in
  let get () = match !t_ref with Some t -> t | None -> assert false in
  let rt =
    Rt.create ~name:"default-pager" ~page_size:kctx.Kctx.page_size ~send (policy get)
  in
  let t =
    { kctx; disk; space; node; rt; free_blocks = Queue.create (); stored = 0 }
  in
  t_ref := Some t;
  Mach_util.Metrics.register_source kctx.Kctx.metrics ~subsystem:"pager.default-pager"
    ~reset:(fun () -> Rt.Stats.reset (Rt.stats rt))
    (fun () -> Rt.Stats.to_list (Rt.stats rt));
  for b = 0 to Disk.blocks disk - 1 do
    Queue.add b t.free_blocks
  done;
  (* Public port: the kernel sends pager_create here. *)
  let public_name = Port_space.allocate space ~backlog:256 () in
  Port_space.enable space public_name;
  let public_port = Port_space.lookup_exn space public_name in
  kctx.Kctx.default_pager_port <- Some public_port;
  (* §6.2.2 rescue: unreleased pageout data is written to the paging
     disk in a detached thread (the scheduler callback must not block).
     The data is unreachable afterwards (the errant manager holds the
     only reference), so one scratch block absorbs all rescues — we pay
     the I/O, we don't leak the paging area. *)
  let scratch_block = alloc_block t in
  kctx.Kctx.rescue_writer <-
    Some
      (fun data ->
        Engine.spawn kctx.Kctx.engine ~name:"default-pager-rescue" (fun () ->
            (* Rescued runs span several pages; pay the I/O per page,
               reusing the scratch block for each. *)
            let ps = kctx.Kctx.page_size in
            let npages = max 1 ((Bytes.length data + ps - 1) / ps) in
            for i = 0 to npages - 1 do
              let len = min ps (Bytes.length data - (i * ps)) in
              Disk.write t.disk ~block:scratch_block (Bytes.sub data (i * ps) len)
            done));
  Engine.spawn kctx.Kctx.engine ~name:"default-pager" (fun () ->
      let rec loop () =
        (match Transport.receive t.node t.space ~from:`Any () with
        | Ok msg ->
          Mach_sim.Trace.adopt kctx.Kctx.trace
            msg.Message.header.Message.trace_span (fun () -> handle t msg)
        | Error _ -> ());
        loop ()
      in
      loop ());
  t

let objects_managed t = Rt.objects t.rt
let pages_stored t = t.stored
let blocks_free t = Queue.length t.free_blocks
let runtime_stats t = Rt.stats t.rt
