(* Network export of a message copy object.

   When an out-of-line region travels to another host, the bytes do not:
   the sending kernel parks the vm_map_copyin snapshot in a private
   kernel map and serves it as a memory object over the external-pager
   protocol (the netmem shape). The message carries only a send right to
   that memory object; the receiving kernel maps it like any
   manager-backed region and pages cross the wire on demand, one
   data_request/data_provided exchange per fault cluster.

   Lifecycle: the receiving kernel's pager_init names its request port;
   when the receiver is done (vm_deallocate / task death) its kernel
   destroys that port, our death hook tears the export down, and the
   server thread exits. *)

module Engine = Mach_sim.Engine
module Port = Mach_ipc.Port
module Port_space = Mach_ipc.Port_space
module Transport = Mach_ipc.Transport
module Message = Mach_ipc.Message
module Pmap = Mach_hw.Pmap
module Rt = Pager_runtime

let log = Logs.Src.create "mach.copy_server" ~doc:"remote copy-object export"

module Log = (val Logs.src_log log)

let export kctx copy =
  let ctx = kctx.Kctx.ctx in
  let host = kctx.Kctx.host in
  let size = Vm_map.copy_size copy in
  (* Park the snapshot in a private kernel map: the copy's references
     move here, and reads below materialize pages through the ordinary
     (lazy copy-out) fault path only when the remote side asks. *)
  let map = Vm_map.create kctx ~pmap:(Some (Pmap.create kctx.Kctx.mem)) in
  let base = Vm_map.copyout map copy () in
  let space = Port_space.create ctx ~home:host in
  let mo = Port.create ctx ~home:host ~backlog:64 () in
  let mo_name = Port_space.insert space mo Message.Receive_right in
  let torn_down = ref false in
  let teardown () =
    if not !torn_down then begin
      torn_down := true;
      Vm_map.destroy map;
      (* Destroying the space kills [mo], waking the server loop. *)
      Port_space.destroy space
    end
  in
  let policy =
    {
      Rt.default_policy with
      Rt.p_read =
        (fun rt _ ~request:_ ~page ~npages:_ ~desired_access:_ ->
          let lo = page * Rt.page_size rt in
          let len = min (Rt.page_size rt) (size - lo) in
          if len <= 0 then Rt.Unavailable
          else
            match Access.read_bytes kctx map ~addr:(base + lo) ~len () with
            | Ok data -> Rt.Data data
            | Error e ->
              Log.warn (fun m -> m "copy export read failed: %a" Access.pp_error e);
              Rt.Unavailable);
      (* The receiver's kernel is attached; its request port's death is
         the signal that it unmapped the region. Nothing is ever locked
         and receiver-side writes shadow locally (needs_copy), so the
         other defaults never run. *)
      p_init = (fun _ _ ~request -> ignore (Port.on_death request teardown));
    }
  in
  let send msg = Result.map_error ignore (Transport.send kctx.Kctx.node msg) in
  let rt = Rt.create ~name:"copy-server" ~page_size:kctx.Kctx.page_size ~send policy in
  ignore (Rt.register rt ~memory_object:mo ());
  Engine.spawn kctx.Kctx.engine ~name:"copy-server" (fun () ->
      let rec loop () =
        match Transport.receive kctx.Kctx.node space ~from:(`Port mo_name) () with
        | Error _ -> teardown ()
        | Ok msg ->
          Rt.dispatch rt ~other:ignore msg;
          if not !torn_down then loop ()
      in
      loop ());
  mo
