module Engine = Mach_sim.Engine
module Transport = Mach_ipc.Transport
module Kctx = Mach_vm.Kctx

let receive_loop (kctx : Kctx.t) ~name space handle =
  Engine.spawn kctx.Kctx.engine ~name (fun () ->
      let rec loop () =
        (match Transport.receive kctx.Kctx.node space ~from:`Any () with
        | Ok msg ->
          (* Serve the message under the sender's span, so the pager leg
             of a fault stays causally linked to the fault. *)
          Mach_sim.Trace.adopt kctx.Kctx.trace msg.Mach_ipc.Message.header.Mach_ipc.Message.trace_span
            (fun () -> handle msg)
        | Error _ -> ());
        loop ()
      in
      loop ())

let start (kctx : Kctx.t) =
  receive_loop kctx ~name:"pager-service" kctx.Kctx.kspace
    (Mach_vm.Pager_client.handle_manager_message kctx)
