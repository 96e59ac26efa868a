open Ktypes
module Message = Mach_ipc.Message
module Port_space = Mach_ipc.Port_space
module Transport = Mach_ipc.Transport
module Prot = Mach_hw.Prot
module Phys_mem = Mach_hw.Phys_mem
module Kctx = Mach_vm.Kctx
module Vm_map = Mach_vm.Vm_map
module Access = Mach_vm.Access
module Page_queues = Mach_vm.Page_queues

let enter t =
  Thread.self_checkpoint t;
  Cpu.compute t.t_kernel Cpu.syscall_overhead_us

(* --- Table 3-1 ---------------------------------------------------------- *)

(* Resolve out-of-line regions named by the sending task into kernel
   copy objects (vm_map_copyin) at send time: the message leaves with a
   handle, never the bytes. Local destinations carry the vm_copy
   directly; remote ones carry a netmem-style memory-object export that
   the receiving kernel pages on demand. *)
let resolve_ool t msg =
  let is_mine = function
    | Message.Ool_region r -> r.Message.src_task = t.t_id
    | Message.Data _ | Message.Caps _ | Message.Ool _ | Message.Ool_copy _ -> false
  in
  if not (List.exists is_mine msg.Message.body) then msg
  else begin
    let kctx = t.t_kernel.k_kctx in
    let dest = msg.Message.header.dest in
    let local = Mach_ipc.Port.home dest = t.t_node.Transport.node_host in
    let resolve item =
      if not (is_mine item) then item
      else
        match item with
        | Message.Ool_region { Message.src_addr; region_size; _ } ->
          let copy = Vm_map.copyin t.t_map ~addr:src_addr ~size:region_size in
          let size = Vm_map.copy_size copy in
          let payload, discard =
            if local then (Vm_map.Vm_copy_handle copy, fun () -> Vm_map.copy_discard copy)
            else
              let nc_object = Mach_vm.Copy_server.export kctx copy in
              (Message.Net_copy { nc_object }, fun () -> Mach_ipc.Port.destroy nc_object)
          in
          Message.Ool_copy { Message.cp_size = size; cp_payload = payload; cp_discard = discard }
        | item -> item
    in
    { msg with Message.body = List.map resolve msg.Message.body }
  end

(* A message that never left drops the snapshots [resolve_ool] took: a
   local one's references, a remote export by killing its object port. *)
let discard_resolved ~orig sent =
  List.iter2
    (fun before after ->
      match (before, after) with
      | Message.Ool_region _, Message.Ool_copy c -> c.Message.cp_discard ()
      | _ -> ())
    orig.Message.body sent.Message.body

let msg_send t ?timeout msg =
  enter t;
  let sent = resolve_ool t msg in
  match Transport.send t.t_node ?timeout sent with
  | Ok () -> Ok ()
  | Error _ as e ->
    discard_resolved ~orig:msg sent;
    e

(* Handoff gives a replying server's processor to its client on the
   assumption that the server blocks next. With no processor idle, the
   trap of the receive it makes next would only wait in a run queue and
   pay a switch to go to sleep; so a receive right after a donation
   bills its trap when it returns, on the processor the thread wakes
   on. *)
let msg_receive t ?(from = `Any) ?timeout () =
  let late = Engine.donated (Engine.self ()) && Sched.idle_cpus t.t_kernel.k_sched = 0 in
  if late then Thread.self_checkpoint t else enter t;
  let r = Transport.receive t.t_node t.t_space ~from ?timeout () in
  if late then Cpu.compute t.t_kernel Cpu.syscall_overhead_us;
  r

let msg_rpc t msg () =
  enter t;
  let sent = resolve_ool t msg in
  match Transport.rpc t.t_node t.t_space sent with
  | Error (`Send _) as e ->
    discard_resolved ~orig:msg sent;
    e
  | (Ok _ | Error (`Recv _)) as r -> r

(* --- Table 3-2 ---------------------------------------------------------- *)

let port_allocate t ?backlog () =
  enter t;
  Port_space.allocate t.t_space ?backlog ()

let port_deallocate t name =
  enter t;
  Port_space.deallocate t.t_space name

let port_enable t name =
  enter t;
  Port_space.enable t.t_space name

let port_status t name =
  enter t;
  Port_space.status t.t_space name

let port_set_backlog t name backlog =
  enter t;
  Port_space.set_backlog t.t_space name backlog

let port_lookup t name = Port_space.lookup t.t_space name
let port_insert t port right = Port_space.insert t.t_space port right

(* --- Table 3-3 ---------------------------------------------------------- *)

let vm_allocate t ?addr ~size ~anywhere () =
  enter t;
  Vm_map.allocate t.t_map ?addr ~size ~anywhere ()

let vm_deallocate t ~addr ~size =
  enter t;
  Vm_map.deallocate t.t_map ~addr ~size

let vm_inherit t ~addr ~size inh =
  enter t;
  Vm_map.set_inheritance t.t_map ~addr ~size inh

let vm_protect t ~addr ~size ~set_max prot =
  enter t;
  Vm_map.protect t.t_map ~addr ~size ~set_max prot

let vm_read t ?target ~addr ~size () =
  enter t;
  let target = match target with Some x -> x | None -> t in
  Access.read_bytes t.t_kernel.k_kctx target.t_map ~addr ~len:size ()

let vm_write t ?target ~addr data () =
  enter t;
  let target = match target with Some x -> x | None -> t in
  Access.write_bytes t.t_kernel.k_kctx target.t_map ~addr data ()

let vm_copy t ~src_addr ~size ~dst_addr =
  enter t;
  let kctx = t.t_kernel.k_kctx in
  match Access.read_bytes kctx t.t_map ~addr:src_addr ~len:size () with
  | Error e -> Error e
  | Ok data -> Access.write_bytes kctx t.t_map ~addr:dst_addr data ()

let vm_regions t =
  enter t;
  Vm_map.regions t.t_map

(* Walk the range page by page: fault each page in, then wire the
   resident page the map resolves it to (the page the fault handler
   used). A writable entry faults for write, as Mach's wiring does, so
   a pending copy-on-write is resolved first and the wired page is the
   one the task writes. *)
let vm_wire t ~addr ~size =
  enter t;
  let ps = t.t_kernel.k_kctx.Kctx.page_size in
  let lookup va =
    match Vm_map.lookup t.t_map ~addr:va ~write:false with
    | Error `Invalid_address -> Error (Access.Bad_address va)
    | Error `Protection -> Error (Access.Access_denied va)
    | Ok lk -> Ok lk
  in
  let rec go va =
    if va >= addr + size then Ok ()
    else
      match lookup va with
      | Error e -> Error e
      | Ok lk -> (
        let write = Prot.can_write lk.Vm_map.lk_entry_prot in
        match Access.touch t.t_kernel.k_kctx t.t_map ~addr:va ~write () with
        | Error e -> Error e
        | Ok _ -> (
          match lookup va with
          | Error e -> Error e
          | Ok lk -> (
            match Mach_vm.Vm_object.walk lk.Vm_map.lk_obj ~offset:lk.Vm_map.lk_offset with
            | Mach_vm.Vm_object.Resident (page, _, _) ->
              Vm_map.wire t.t_map ~addr:va page;
              go (va + ps)
            | Paged _ | Nowhere -> go (va + ps))))
  in
  go (addr land lnot (ps - 1))

let vm_unwire t ~addr ~size =
  enter t;
  Vm_map.unwire t.t_map ~lo:addr ~hi:(addr + size)

type vm_statistics = {
  vs_page_size : int;
  vs_free_count : int;
  vs_active_count : int;
  vs_inactive_count : int;
  vs_stats : Mach_vm.Vm_types.stats;
}

let vm_statistics t =
  enter t;
  let kctx = t.t_kernel.k_kctx in
  {
    vs_page_size = kctx.Kctx.page_size;
    vs_free_count = Phys_mem.free_frames kctx.Kctx.mem;
    vs_active_count = Page_queues.active_count kctx.Kctx.queues;
    vs_inactive_count = Page_queues.inactive_count kctx.Kctx.queues;
    vs_stats = kctx.Kctx.stats;
  }

(* --- Table 3-4 ---------------------------------------------------------- *)

let vm_allocate_with_pager t ?addr ~size ~anywhere ~memory_object ~offset () =
  enter t;
  let kctx = t.t_kernel.k_kctx in
  let obj = Mach_vm.Vm_object.create_external kctx ~memory_object ~size:(offset + size) in
  Mach_vm.Pager_client.ensure_initialized kctx obj;
  Vm_map.allocate_with_object t.t_map ?addr ~size ~anywhere ~obj ~offset ()

(* --- out-of-line regions ------------------------------------------------- *)

let ool_region t ~addr ~size =
  Message.Ool_region { Message.src_task = t.t_id; src_addr = addr; region_size = size }

let map_ool t msg =
  let kctx = t.t_kernel.k_kctx in
  List.filter_map
    (fun item ->
      match item with
      | Message.Ool_copy { Message.cp_size; cp_payload = Vm_map.Vm_copy_handle copy; _ } ->
        if copy.Vm_map.vc_kctx != kctx then
          invalid_arg "Syscalls.map_ool: local copy handle from another host";
        (* Lazy copy-out: O(pieces) map manipulation now, pages
           materialize through the fault path on first touch. *)
        let addr = Vm_map.copyout t.t_map copy () in
        Some (addr, cp_size)
      | Message.Ool_copy { Message.cp_size; cp_payload = Message.Net_copy { nc_object }; _ } ->
        (* Remote copy object: map the sender's export like any
           manager-backed region; pages cross the wire on demand.
           needs_copy keeps local writes in a shadow so they can never
           leak back to the exporter. *)
        let obj = Mach_vm.Vm_object.create_external kctx ~memory_object:nc_object ~size:cp_size in
        Mach_vm.Pager_client.ensure_initialized kctx obj;
        let addr =
          Vm_map.allocate_with_object t.t_map ~size:cp_size ~anywhere:true ~obj ~offset:0
            ~needs_copy:true ~from_copy:true ()
        in
        Some (addr, cp_size)
      | Message.Ool_copy _ -> invalid_arg "Syscalls.map_ool: unknown copy payload"
      | Message.Ool_region _ ->
        invalid_arg "Syscalls.map_ool: region not snapshotted at send (use msg_send or msg_rpc)"
      | Message.Data _ | Message.Caps _ | Message.Ool _ -> None)
    msg.Message.body

(* --- memory access ------------------------------------------------------ *)

let touch t ~addr ~write ?policy () =
  Thread.self_checkpoint t;
  match Access.touch t.t_kernel.k_kctx t.t_map ~addr ~write ?policy () with
  | Ok _ -> Ok ()
  | Error e -> Error e

let read_bytes t ~addr ~len ?policy () =
  Thread.self_checkpoint t;
  Access.read_bytes t.t_kernel.k_kctx t.t_map ~addr ~len ?policy ()

let write_bytes t ~addr data ?policy () =
  Thread.self_checkpoint t;
  Access.write_bytes t.t_kernel.k_kctx t.t_map ~addr data ?policy ()
