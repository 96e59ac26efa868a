module Engine = Mach_sim.Engine
module Port_space = Mach_ipc.Port_space
module Message = Mach_ipc.Message
module Disk = Mach_hw.Disk
module Kctx = Mach_vm.Kctx
module Rt = Mach_vm.Pager_runtime

(* The default pager is a policy module over the shared pager runtime,
   like every other manager: the runtime owns the object registry, the
   decoding and the request splitting; this file only maps pages to
   paging-disk blocks and adopts the objects the kernel creates. Being
   part of the kernel image, it pumps a kernel receive loop instead of
   going through [Memory_object_server]. *)

type managed = { blocks : (int, int) Hashtbl.t  (** object offset → disk block *) }

type t = {
  disk : Disk.t;
  space : Port_space.t;
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
      (fun rt o ~request:_ ~page ~npages:_ ~desired_access:_ ->
        let t = get () in
        let ps = Rt.page_size rt in
        match Hashtbl.find_opt o.Rt.o_data.blocks (page * ps) with
        | Some block ->
          let data = Disk.read t.disk ~block in
          let len = min ps (Bytes.length data) in
          Rt.Data (if len = Bytes.length data then data else Bytes.sub data 0 len)
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
            Disk.write t.disk ~block ~pos ~len data));
    p_death = (fun _ o _ -> release_blocks (get ()) o);
  }

(* An object this pager does not manage yet: one the kernel hands over
   with pager_create, or one named by a pager_init (a default pager can
   also serve as an ordinary manager). Take the receive right — a no-op
   for an init, which arrives on a port already held. The runtime
   reclaims the paging blocks when the request port or the object port
   dies. *)
let adopt t ~memory_object =
  Port_space.enable t.space (Port_space.insert t.space memory_object Message.Receive_right);
  { blocks = Hashtbl.create 16 }

let start kctx ~disk =
  let space = Port_space.create kctx.Kctx.ctx ~home:kctx.Kctx.host in
  let t_ref = ref None in
  let get () = match !t_ref with Some t -> t | None -> assert false in
  (* Replies must not block the pager loop; a dead port is a dropped
     reply the runtime counts. *)
  let send = Mach_vm.Pager_client.kernel_send ~retry_thread:"default-pager-send" kctx in
  let rt =
    Rt.create ~name:"default-pager" ~page_size:kctx.Kctx.page_size ~send
      ~defer:(fun death -> death ())
      (policy get)
  in
  let t = { disk; space; rt; free_blocks = Queue.create (); stored = 0 } in
  t_ref := Some t;
  Mach_util.Metrics.register_source kctx.Kctx.metrics ~subsystem:"pager.default-pager" (fun () ->
      Rt.Stats.to_list (Rt.stats rt));
  for b = 0 to Disk.blocks disk - 1 do
    Queue.add b t.free_blocks
  done;
  (* Public port: the kernel sends pager_create here. *)
  let public_name = Port_space.allocate space ~backlog:256 () in
  Port_space.enable space public_name;
  kctx.Kctx.default_pager_port <- Some (Port_space.lookup_exn space public_name);
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
              Disk.write t.disk ~block:scratch_block ~pos:(i * ps) ~len data
            done));
  Pager_service.receive_loop kctx ~name:"default-pager" space
    (Rt.dispatch rt ~adopt:(adopt t) ~other:ignore);
  t

let pages_stored t = t.stored
let blocks_free t = Queue.length t.free_blocks
let runtime_stats t = Rt.stats t.rt
