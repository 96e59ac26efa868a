(* Copy semantics of out-of-line message transfer.

   msg_send and msg_rpc snapshot Ool_region items into kernel copy
   objects (vm_map_copyin): from that instant the message's contents are
   fixed, and a send that fails releases the snapshot.
   The receiver's map_ool attaches the snapshot lazily (vm_map_copyout)
   and its pages materialize through the fault path. Both directions of
   isolation must hold — sender writes after the send are invisible to
   the receiver, and receiver writes never leak back — locally and
   across hosts, for any interleaving of sends and writes. *)

open Mach

let check = Alcotest.check
let page = 4096

let with_system ?config f =
  let sys = Kernel.create_system ?config () in
  let result = ref None in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let task = Task.create sys.Kernel.kernel ~name:"sender" () in
      ignore (Thread.spawn task ~name:"sender.main" (fun () -> result := Some (f sys task)));
      ());
  Engine.run sys.Kernel.engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "scenario did not complete (deadlock?)"

let read_str task ~addr ~len =
  match Syscalls.read_bytes task ~addr ~len () with
  | Ok b -> Bytes.to_string b
  | Error e -> Alcotest.failf "%s read: %a" (Task.name task) Access.pp_error e

let write_str task ~addr s =
  match Syscalls.write_bytes task ~addr (Bytes.of_string s) () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s write: %a" (Task.name task) Access.pp_error e

(* Ship [addr, addr+size) of [sender] out of line to [dest]. *)
let send_region sender ~addr ~size ~dest =
  match
    Syscalls.msg_send sender (Message.make ~dest [ Syscalls.ool_region sender ~addr ~size ])
  with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "ool send failed"

let receive_mapped receiver ~svc =
  match Syscalls.msg_receive receiver ~from:(`Port svc) () with
  | Ok msg -> (
    match Syscalls.map_ool receiver msg with
    | [ (addr, size) ] -> (addr, size)
    | other -> Alcotest.failf "expected one mapped region, got %d" (List.length other))
  | Error _ -> Alcotest.fail "receive failed"

(* Serve one RPC on [svc]: map the request's region and echo all of it
   back inline. *)
let serve_echo server ~svc =
  match Syscalls.msg_receive server ~from:(`Port svc) () with
  | Error _ -> Alcotest.fail "server receive failed"
  | Ok msg -> (
    let raddr, rsize =
      match Syscalls.map_ool server msg with
      | [ r ] -> r
      | other -> Alcotest.failf "expected one mapped region, got %d" (List.length other)
    in
    let data = Bytes.of_string (read_str server ~addr:raddr ~len:rsize) in
    Syscalls.vm_deallocate server ~addr:raddr ~size:rsize;
    match msg.Message.header.Message.reply with
    | None -> Alcotest.fail "request without reply port"
    | Some reply -> (
      match Syscalls.msg_send server (Message.make ~dest:reply [ Message.Data data ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "reply send failed"))

(* RPC [addr, addr+size) of [client] out of line to [dest]; returns the
   inline reply. *)
let rpc_region client ~addr ~size ~dest =
  let reply_name = Syscalls.port_allocate client () in
  let reply = Mach_ipc.Port_space.lookup_exn (Task.space client) reply_name in
  match
    Syscalls.msg_rpc client (Message.make ~dest ~reply [ Syscalls.ool_region client ~addr ~size ]) ()
  with
  | Ok msg -> Bytes.to_string (Message.data_exn msg)
  | Error _ -> Alcotest.fail "ool rpc failed"

let pattern size = String.init size (fun i -> Char.chr (((i * 7) + (i / page)) land 0xff))

let test_sender_writes_invisible () =
  with_system (fun sys sender ->
      let receiver = Task.create sys.Kernel.kernel ~name:"receiver" () in
      let svc = Syscalls.port_allocate receiver ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
      let size = 2 * page in
      let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
      write_str sender ~addr "before";
      write_str sender ~addr:(addr + page) "tail";
      send_region sender ~addr ~size ~dest:svc_port;
      (* The snapshot is already fixed: scribble over both pages. *)
      write_str sender ~addr "AFTER!";
      write_str sender ~addr:(addr + page) "gone";
      let raddr, rsize = receive_mapped receiver ~svc in
      check Alcotest.int "full region mapped" size rsize;
      check Alcotest.string "first page is the snapshot" "before"
        (read_str receiver ~addr:raddr ~len:6);
      check Alcotest.string "second page is the snapshot" "tail"
        (read_str receiver ~addr:(raddr + page) ~len:4))

let test_receiver_writes_do_not_leak () =
  with_system (fun sys sender ->
      let receiver = Task.create sys.Kernel.kernel ~name:"receiver" () in
      let svc = Syscalls.port_allocate receiver ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
      let size = page in
      let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
      write_str sender ~addr "original";
      send_region sender ~addr ~size ~dest:svc_port;
      let raddr, _ = receive_mapped receiver ~svc in
      write_str receiver ~addr:raddr "tampered";
      check Alcotest.string "receiver sees its own write" "tampered"
        (read_str receiver ~addr:raddr ~len:8);
      check Alcotest.string "sender unaffected" "original" (read_str sender ~addr ~len:8))

let test_lazy_copyout_faults_counted () =
  with_system (fun sys sender ->
      let stats = (Kernel.kctx sys.Kernel.kernel).Kctx.node.Transport.node_stats in
      let receiver = Task.create sys.Kernel.kernel ~name:"receiver" () in
      let svc = Syscalls.port_allocate receiver ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
      let size = 4 * page in
      let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
      write_str sender ~addr "payload";
      let copyins0 = Counters.get stats Transport.s_copyins in
      send_region sender ~addr ~size ~dest:svc_port;
      check Alcotest.int "one copyin at send" 1 (Counters.get stats Transport.s_copyins - copyins0);
      let faults0 = Counters.get stats Transport.s_lazy_copyout_faults in
      let raddr, _ = receive_mapped receiver ~svc in
      check Alcotest.int "mapping alone faults nothing" 0
        (Counters.get stats Transport.s_lazy_copyout_faults - faults0);
      check Alcotest.string "first touch pages the copy in" "payload"
        (read_str receiver ~addr:raddr ~len:7);
      Alcotest.(check bool) "lazy copy-out faults counted" true
        (Counters.get stats Transport.s_lazy_copyout_faults > faults0))

let test_remote_copy_transfer () =
  let cluster = Kernel.create_cluster ~hosts:2 () in
  let result = ref None in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      let sender = Task.create cluster.Kernel.c_kernels.(0) ~name:"sender" () in
      let receiver = Task.create cluster.Kernel.c_kernels.(1) ~name:"receiver" () in
      let svc = Syscalls.port_allocate receiver ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
      let size = 2 * page in
      ignore
        (Thread.spawn sender ~name:"sender.main" (fun () ->
             let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
             write_str sender ~addr "across-the-wire";
             send_region sender ~addr ~size ~dest:svc_port;
             (* Late sender writes must not reach the remote snapshot
                even though its pages have not crossed the wire yet. *)
             write_str sender ~addr "XXXXXXXXXXXXXXX"));
      ignore
        (Thread.spawn receiver ~name:"receiver.main" (fun () ->
             let msg =
               match Syscalls.msg_receive receiver ~from:(`Port svc) () with
               | Ok msg -> msg
               | Error _ -> Alcotest.fail "remote receive failed"
             in
             (* The message carries only a handle to the sender-side
                export, never the bytes. *)
             let mo =
               match msg.Message.body with
               | [ Message.Ool_copy { Message.cp_payload = Message.Net_copy { nc_object }; _ } ]
                 -> nc_object
               | _ -> Alcotest.fail "expected a remote copy handle"
             in
             let raddr, rsize =
               match Syscalls.map_ool receiver msg with
               | [ r ] -> r
               | other -> Alcotest.failf "expected one mapped region, got %d" (List.length other)
             in
             let first = read_str receiver ~addr:raddr ~len:15 in
             write_str receiver ~addr:raddr "local-scribble!";
             let after = read_str receiver ~addr:raddr ~len:15 in
             (* Dropping the mapping kills our pager request port; the
                sender-side export sees the death and tears down. *)
             Syscalls.vm_deallocate receiver ~addr:raddr ~size:rsize;
             Engine.sleep 10_000.0;
             result := Some (first, after, Mach_ipc.Port.alive mo))));
  Engine.run cluster.Kernel.c_engine;
  match !result with
  | None -> Alcotest.fail "remote transfer did not complete (deadlock?)"
  | Some (first, after, export_alive) ->
    check Alcotest.string "receiver pages in the send-time snapshot" "across-the-wire" first;
    check Alcotest.string "receiver writes stay local" "local-scribble!" after;
    Alcotest.(check bool) "export torn down after unmap" false export_alive

let test_rpc_snapshots_at_send () =
  with_system (fun sys client ->
      let stats = (Kernel.kctx sys.Kernel.kernel).Kctx.node.Transport.node_stats in
      let server = Task.create sys.Kernel.kernel ~name:"server" () in
      let svc = Syscalls.port_allocate server ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space server) svc in
      let size = 2 * page in
      let addr = Syscalls.vm_allocate client ~size ~anywhere:true () in
      write_str client ~addr (pattern size);
      ignore (Thread.spawn server ~name:"server.main" (fun () -> serve_echo server ~svc));
      let copyins0 = Counters.get stats Transport.s_copyins in
      let echoed = rpc_region client ~addr ~size ~dest:svc_port in
      check Alcotest.int "one copyin at send" 1 (Counters.get stats Transport.s_copyins - copyins0);
      check Alcotest.string "server read the snapshot" (pattern size) echoed)

let test_failed_send_discards_snapshot () =
  with_system (fun sys sender ->
      let dead = Task.create sys.Kernel.kernel ~name:"dead" () in
      let svc = Syscalls.port_allocate dead () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space dead) svc in
      let reply_name = Syscalls.port_allocate sender () in
      let reply = Mach_ipc.Port_space.lookup_exn (Task.space sender) reply_name in
      let size = 2 * page in
      let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
      write_str sender ~addr "doomed";
      let obj =
        match
          List.find
            (fun e -> e.Vm_map.va_start <= addr && addr < e.Vm_map.va_end)
            (Vm_map.entries (Task.map sender))
        with
        | { Vm_map.backing = Vm_map.Direct d; _ } -> d.Vm_map.d_obj
        | _ -> Alcotest.fail "expected a direct entry"
      in
      let refs0 = obj.Vm_types.ref_count in
      Task.terminate dead;
      let region () = [ Syscalls.ool_region sender ~addr ~size ] in
      (match Syscalls.msg_send sender (Message.make ~dest:svc_port (region ())) with
      | Error Transport.Send_invalid_port -> ()
      | Ok () | Error _ -> Alcotest.fail "msg_send to a dead port did not fail");
      check Alcotest.int "failed msg_send dropped its snapshot" refs0 obj.Vm_types.ref_count;
      (match Syscalls.msg_rpc sender (Message.make ~dest:svc_port ~reply (region ())) () with
      | Error (`Send Transport.Send_invalid_port) -> ()
      | Ok _ | Error _ -> Alcotest.fail "msg_rpc to a dead port did not fail");
      check Alcotest.int "failed msg_rpc dropped its snapshot" refs0 obj.Vm_types.ref_count;
      check Alcotest.string "sender data intact" "doomed" (read_str sender ~addr ~len:6))

(* A message reaching a receiver already blocked on [svc]: the sender
   waits until the receiver has blocked. Returns the fast-path count
   the send added and what the receiver got. *)
let send_to_blocked sys sender ~receiver ~svc ~svc_port body =
  let stats = (Kernel.kctx sys.Kernel.kernel).Kctx.node.Transport.node_stats in
  let got = Ivar.create () in
  ignore
    (Thread.spawn receiver ~name:"receiver.main" (fun () ->
         match Syscalls.msg_receive receiver ~from:(`Port svc) () with
         | Ok msg -> Ivar.fill got msg
         | Error _ -> Alcotest.fail "receive failed"));
  Engine.sleep 1_000.0;
  let fast0 = Counters.value stats "rpc_fastpath" in
  (match Syscalls.msg_send sender (Message.make ~dest:svc_port body) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send failed");
  let fast = Counters.value stats "rpc_fastpath" - fast0 in
  (fast, Ivar.read got)

let test_copy_handle_takes_fastpath () =
  (* A copy object travels as a 16-byte handle, so a region send to a
     blocked receiver is handed off directly — and still reads back
     byte-exact through the lazy copy-out. *)
  with_system (fun sys sender ->
      let receiver = Task.create sys.Kernel.kernel ~name:"receiver" () in
      let svc = Syscalls.port_allocate receiver ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
      let size = 3 * page in
      let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
      write_str sender ~addr (pattern size);
      let fast, msg =
        send_to_blocked sys sender ~receiver ~svc ~svc_port
          [ Syscalls.ool_region sender ~addr ~size ]
      in
      check Alcotest.int "Ool_copy send took the fast path" 1 fast;
      match Syscalls.map_ool receiver msg with
      | [ (raddr, rsize) ] ->
        check Alcotest.int "full region mapped" size rsize;
        check Alcotest.string "region reads back byte-exact" (pattern size)
          (read_str receiver ~addr:raddr ~len:rsize)
      | other -> Alcotest.failf "expected one mapped region, got %d" (List.length other))

let test_carried_payload_skips_fastpath () =
  (* A Map_transfer payload carried in the message still pays its map
     operations on the queue path. *)
  with_system (fun sys sender ->
      let receiver = Task.create sys.Kernel.kernel ~name:"receiver" () in
      let svc = Syscalls.port_allocate receiver ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
      let payload = Bytes.of_string (pattern page) in
      let fast, msg =
        send_to_blocked sys sender ~receiver ~svc ~svc_port
          [ Message.Ool { Message.ool_data = payload; transfer = Message.Map_transfer } ]
      in
      check Alcotest.int "carried payload took the queue path" 0 fast;
      check Alcotest.(list string) "payload delivered" [ pattern page ]
        (List.map Bytes.to_string (Message.ool_payloads msg)))

let test_remote_rpc_region () =
  let cluster = Kernel.create_cluster ~hosts:2 () in
  let size = 2 * page in
  let result = ref None in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      let client = Task.create cluster.Kernel.c_kernels.(0) ~name:"client" () in
      let server = Task.create cluster.Kernel.c_kernels.(1) ~name:"server" () in
      let svc = Syscalls.port_allocate server ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space server) svc in
      ignore (Thread.spawn server ~name:"server.main" (fun () -> serve_echo server ~svc));
      ignore
        (Thread.spawn client ~name:"client.main" (fun () ->
             let addr = Syscalls.vm_allocate client ~size ~anywhere:true () in
             write_str client ~addr (pattern size);
             result := Some (rpc_region client ~addr ~size ~dest:svc_port))));
  Engine.run cluster.Kernel.c_engine;
  match !result with
  | None -> Alcotest.fail "remote rpc did not complete (deadlock?)"
  | Some echoed -> check Alcotest.string "server read the region byte-exact" (pattern size) echoed

(* qcheck: the lazy pipeline must be observationally equal to an eager
   Bytes.blit snapshot at every send, for any interleaving of sends and
   single-byte sender writes. *)
let copy_oracle_prop =
  let open QCheck2 in
  let size = 2 * page in
  let gen =
    Gen.(
      list_size (int_range 1 4)
        (pair
           (list_size (int_range 0 6) (pair (int_range 0 (size - 1)) (char_range 'a' 'z')))
           unit))
  in
  Test.make ~name:"lazy copy-out equals eager blit oracle" ~count:30 gen (fun rounds ->
      with_system (fun sys sender ->
          let receiver = Task.create sys.Kernel.kernel ~name:"receiver" () in
          let svc = Syscalls.port_allocate receiver ~backlog:8 () in
          let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
          let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
          (match Syscalls.write_bytes sender ~addr (Bytes.make size '.') () with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "seed write failed");
          let oracle = Bytes.make size '.' in
          (* Each round: a burst of overlapping writes, then a send.
             The oracle snapshots eagerly at the send. *)
          let snapshots =
            List.map
              (fun (writes, ()) ->
                List.iter
                  (fun (off, ch) ->
                    Bytes.set oracle off ch;
                    match
                      Syscalls.write_bytes sender ~addr:(addr + off) (Bytes.make 1 ch) ()
                    with
                    | Ok () -> ()
                    | Error _ -> Alcotest.fail "interleaved write failed")
                  writes;
                send_region sender ~addr ~size ~dest:svc_port;
                let snap = Bytes.create size in
                Bytes.blit oracle 0 snap 0 size;
                snap)
              rounds
          in
          List.for_all
            (fun snap ->
              let raddr, rsize = receive_mapped receiver ~svc in
              let got = read_str receiver ~addr:raddr ~len:rsize in
              Syscalls.vm_deallocate receiver ~addr:raddr ~size:rsize;
              String.equal got (Bytes.to_string snap))
            snapshots))

let () =
  Alcotest.run "copy_transfer"
    [
      ( "local",
        [
          Alcotest.test_case "sender writes after send invisible" `Quick
            test_sender_writes_invisible;
          Alcotest.test_case "receiver writes do not leak back" `Quick
            test_receiver_writes_do_not_leak;
          Alcotest.test_case "copyin eager, copy-out faults lazy" `Quick
            test_lazy_copyout_faults_counted;
          Alcotest.test_case "msg_rpc snapshots at send" `Quick test_rpc_snapshots_at_send;
          Alcotest.test_case "failed send discards snapshot" `Quick
            test_failed_send_discards_snapshot;
          Alcotest.test_case "copy handle takes the fast path" `Quick
            test_copy_handle_takes_fastpath;
          Alcotest.test_case "carried payload skips the fast path" `Quick
            test_carried_payload_skips_fastpath;
        ] );
      ( "remote",
        [
          Alcotest.test_case "cross-host snapshot" `Quick test_remote_copy_transfer;
          Alcotest.test_case "cross-host msg_rpc region" `Quick test_remote_rpc_region;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest copy_oracle_prop ]);
    ]
