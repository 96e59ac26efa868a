(* E1 — Table 3-1/3-2: primitive message and port operation costs, the
   msg_rpc round trip as a function of inline payload size, and the
   kernel's IPC counters for the whole run (zero-copy bookkeeping). *)

open Mach
open Common

let null_msg ~dest ?reply () =
  Message.make ?reply ~dest [ Message.Data (Bytes.create 32) ]

let rpc_sizes = [ 32; 256; 1024; 4096 ]

(* Each primitive's key and its row label. *)
let ops =
  [
    ("msg_send_us", "msg_send (32-byte message, one way)");
    ("msg_receive_us", "msg_receive");
    ("msg_rpc_us", "msg_rpc (round trip)");
    ("port_alloc_dealloc_us", "port_allocate + port_deallocate");
    ("port_status_us", "port_status");
  ]

let body scale =
  let rounds = match scale with Full -> 200 | Small -> 10 in
  run_system (fun sys task ->
      let engine = sys.Kernel.engine in
      let server = Task.create sys.Kernel.kernel ~name:"echo" () in
      let svc = Syscalls.port_allocate server ~backlog:64 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space server) svc in
      ignore
        (Thread.spawn server ~name:"echo.main" (fun () ->
             let continue_serving = ref true in
             while !continue_serving do
               match Syscalls.msg_receive server ~from:(`Port svc) () with
               | Ok msg -> (
                 match msg.Message.header.reply with
                 | Some reply -> (
                   match Syscalls.msg_send server (null_msg ~dest:reply ()) with
                   | Ok () -> ()
                   | Error _ -> continue_serving := false)
                 | None -> ())
               | Error _ -> continue_serving := false
             done));
      (* One-way send into a drained queue. *)
      let sink = Task.create sys.Kernel.kernel ~name:"sink" () in
      let sink_name = Syscalls.port_allocate sink ~backlog:(rounds + 1) () in
      let sink_port = Mach_ipc.Port_space.lookup_exn (Task.space sink) sink_name in
      let (), send_us =
        timed engine (fun () ->
            for _ = 1 to rounds do
              ignore (Syscalls.msg_send task (null_msg ~dest:sink_port ()))
            done)
      in
      (* Receive cost. *)
      let (), recv_us =
        timed engine (fun () ->
            for _ = 1 to rounds do
              ignore (Syscalls.msg_receive sink ~from:(`Port sink_name) ())
            done)
      in
      (* Full RPC. *)
      let reply_name = Syscalls.port_allocate task () in
      let reply_port = Mach_ipc.Port_space.lookup_exn (Task.space task) reply_name in
      let (), rpc_us =
        timed engine (fun () ->
            for _ = 1 to rounds do
              ignore (Syscalls.msg_rpc task (null_msg ~dest:svc_port ~reply:reply_port ()) ())
            done)
      in
      (* Port management. *)
      let (), port_us =
        timed engine (fun () ->
            for _ = 1 to rounds do
              let n = Syscalls.port_allocate task () in
              Syscalls.port_deallocate task n
            done)
      in
      let (), status_us =
        timed engine (fun () ->
            for _ = 1 to rounds do
              ignore (Syscalls.port_status task reply_name)
            done)
      in
      let per x = x /. float_of_int rounds in
      (* Round trip as a function of inline payload: the small sizes
         ride the blocked-receiver fast path, the large ones take the
         queue path and pay the per-byte copy. *)
      let rpc_by_size =
        List.map
          (fun size ->
            let msg () =
              Message.make ~dest:svc_port ~reply:reply_port
                [ Message.Data (Bytes.create size) ]
            in
            let (), t =
              timed engine (fun () ->
                  for _ = 1 to rounds do
                    ignore (Syscalls.msg_rpc task (msg ()) ())
                  done)
            in
            (size, per t))
          rpc_sizes
      in
      List.combine (List.map fst ops) (List.map per [ send_us; recv_us; rpc_us; port_us; status_us ])
      @ List.map (fun (size, v) -> (Printf.sprintf "rpc_us_%d" size, v)) rpc_by_size)

let tables pairs =
  let t =
    Table.create ~title:"E1: IPC primitive operations (Table 3-1/3-2)"
      ~columns:[ "operation"; "simulated us" ]
  in
  List.iter (fun (key, op) -> Table.row t [ op; us (get pairs key) ]) ops;
  let t2 =
    Table.create ~title:"E1: msg_rpc round trip by inline payload size"
      ~columns:[ "payload"; "round trip us" ]
  in
  List.iter (fun (size, v) -> Table.row t2 [ size ^ " B"; us v ]) (with_prefix pairs "rpc_us_");
  let t3 =
    Table.create ~title:"E1: kernel IPC counters (whole run)"
      ~columns:[ "counter"; "value" ]
  in
  List.iter (fun (k, v) -> Table.row t3 [ k; us0 v ]) (with_prefix pairs "reg.ipc.");
  [ t; t2; t3 ]

let experiment =
  {
    id = "E1";
    title = "IPC primitives";
    paper_claim =
      "Tables 3-1/3-2 define msg_send/msg_receive/msg_rpc and the port operations; a local \
       message exchange costs on the order of 100 us on 1987 hardware.";
    body;
    tables;
  }
