(* Tests for ports, port spaces, messages, and the Table 3-1/3-2
   transport. *)

module Engine = Mach_sim.Engine
module Counters = Mach_util.Metrics.Counters
module Net = Mach_hw.Net
module Machine = Mach_hw.Machine
module Context = Mach_ipc.Context
module Port = Mach_ipc.Port
module Message = Mach_ipc.Message
module Port_space = Mach_ipc.Port_space
module Transport = Mach_ipc.Transport

let check = Alcotest.check

let make_ctx () =
  let eng = Engine.create () in
  let net = Net.create eng ~latency_us:100.0 ~us_per_byte:1.0 () in
  let ctx = Context.create eng net in
  (eng, net, ctx)

(* One node per host of a context, as a booted kernel has: a scheduler
   with a processor for every test thread, and a trace left off. *)
let nodes = ref []

let node ?(host = 0) ctx =
  match List.find_opt (fun (c, h, _) -> c == ctx && h = host) !nodes with
  | Some (_, _, nd) -> nd
  | None ->
    let eng = Context.engine ctx in
    let nd =
      {
        Transport.node_host = host;
        node_params = Machine.uniprocessor;
        node_page_size = 4096;
        node_stats = Counters.create Transport.ipc_counters;
        node_sched =
          Mach_sim.Sched.create eng ~cpus:64
            ~context_switch_us:Machine.uniprocessor.Machine.context_switch_us ();
        node_trace = Mach_sim.Trace.create eng;
      }
    in
    nodes := (ctx, host, nd) :: !nodes;
    nd

let data s = Message.Data (Bytes.of_string s)

let in_sim eng f =
  let result = ref None in
  Engine.spawn eng ~name:"test-body" (fun () -> result := Some (f ()));
  Engine.run eng;
  match !result with Some r -> r | None -> Alcotest.fail "test body blocked forever"

(* ---- ports ---------------------------------------------------------------- *)

let test_port_identity () =
  let _, _, ctx = make_ctx () in
  let a = Port.create ctx ~home:0 ~drop:Message.discard () in
  let b = Port.create ctx ~home:0 ~drop:Message.discard () in
  Alcotest.(check bool) "distinct ids" true (Port.id a <> Port.id b);
  Alcotest.(check bool) "equal self" true (Port.equal a a);
  Alcotest.(check bool) "not equal other" false (Port.equal a b)

let test_port_death_hooks () =
  let _, _, ctx = make_ctx () in
  let p = Port.create ctx ~home:0 ~drop:Message.discard () in
  let fired = ref [] in
  Port.on_death p (fun () -> fired := 1 :: !fired);
  Port.on_death p (fun () -> fired := 2 :: !fired);
  Port.destroy p;
  check Alcotest.(list int) "hooks run in registration order" [ 1; 2 ] (List.rev !fired);
  Alcotest.(check bool) "dead" false (Port.alive p);
  (* Hook on dead port fires immediately. *)
  let fired_now = ref false in
  ignore (Port.on_death p (fun () -> fired_now := true));
  Alcotest.(check bool) "immediate" true !fired_now;
  (* Idempotent destroy. *)
  Port.destroy p

let test_port_backlog_accessors () =
  let _, _, ctx = make_ctx () in
  let p = Port.create ctx ~home:0 ~backlog:5 ~drop:Message.discard () in
  check Alcotest.int "backlog" 5 (Port.backlog p);
  Port.set_backlog p 9;
  check Alcotest.int "updated" 9 (Port.backlog p)

(* ---- message accessors ----------------------------------------------------- *)

let test_message_accounting () =
  let _, _, ctx = make_ctx () in
  let dest = Port.create ctx ~home:0 ~drop:Message.discard () in
  let cap = Port.create ctx ~home:0 ~drop:Message.discard () in
  let msg =
    Message.make ~dest
      [
        data "12345";
        Message.Caps [ { Message.cap_port = cap; cap_right = Message.Send_right } ];
        Message.Data (Bytes.create 100);
        Message.Ool (Bytes.create 200);
        Message.Ool_region { Message.src_task = 1; src_addr = 0; region_size = 300 };
      ]
  in
  check Alcotest.int "inline = both data items" 105 (Message.inline_bytes msg);
  check Alcotest.int "mapped = ool + region" 500 (Message.mapped_bytes msg);
  check Alcotest.int "total" 605 (Message.total_bytes msg);
  check Alcotest.int "caps" 1 (List.length (Message.caps msg));
  check Alcotest.string "data_exn" "12345" (Bytes.to_string (Message.data_exn msg));
  check Alcotest.int "ool payloads" 1 (List.length (Message.ool_payloads msg));
  check Alcotest.int "ool payload carried" 200 (Message.carried_mapped_bytes msg)

(* ---- port space ------------------------------------------------------------- *)

let test_space_allocate_lookup () =
  let _, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp () in
  Alcotest.(check bool) "receive right" true (Port_space.has_receive sp n);
  Alcotest.(check bool) "send right" true (Port_space.has_send sp n);
  let p = Port_space.lookup_exn sp n in
  check Alcotest.(option int) "name_of" (Some n) (Port_space.name_of sp p)

let test_space_rights_coalesce () =
  let _, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let p = Port.create ctx ~home:0 ~drop:Message.discard () in
  let n1 = Port_space.insert sp p Message.Send_right in
  let n2 = Port_space.insert sp p Message.Send_right in
  check Alcotest.int "same name" n1 n2;
  Alcotest.(check bool) "no receive yet" false (Port_space.has_receive sp n1);
  let n3 = Port_space.insert sp p Message.Receive_right in
  check Alcotest.int "still same name" n1 n3;
  Alcotest.(check bool) "receive now" true (Port_space.has_receive sp n1)

let test_space_deallocate_receive_destroys () =
  let _, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp () in
  let p = Port_space.lookup_exn sp n in
  Port_space.deallocate sp n;
  Alcotest.(check bool) "port destroyed" false (Port.alive p);
  check Alcotest.(option Alcotest.reject) "name gone"
    None
    (Option.map (fun _ -> assert false) (Port_space.lookup sp n))

let test_space_death_notification () =
  let _, _, ctx = make_ctx () in
  let holder = Port_space.create ctx ~home:0 in
  let owner = Port_space.create ctx ~home:0 in
  let n_owner = Port_space.allocate owner () in
  let p = Port_space.lookup_exn owner n_owner in
  let n_holder = Port_space.insert holder p Message.Send_right in
  (* Owner drops the receive right: the holder's name goes dead. *)
  Port_space.deallocate owner n_owner;
  Alcotest.(check bool) "port dead" false (Port.alive p);
  Alcotest.(check bool) "dead name finds nothing" true (Port_space.lookup holder n_holder = None);
  Alcotest.(check bool) "dead name holds no send right" false (Port_space.has_send holder n_holder);
  check Alcotest.(option int) "name still allocated" (Some n_holder) (Port_space.name_of holder p)

let test_space_enable_disable () =
  let _, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n1 = Port_space.allocate sp () in
  let n2 = Port_space.allocate sp () in
  Port_space.enable sp n1;
  Port_space.enable sp n2;
  check Alcotest.(list int) "both enabled" [ n1; n2 ] (Port_space.enabled sp);
  Port_space.disable sp n1;
  check Alcotest.(list int) "one left" [ n2 ] (Port_space.enabled sp)

let test_space_enable_requires_receive () =
  let _, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let p = Port.create ctx ~home:0 ~drop:Message.discard () in
  let n = Port_space.insert sp p Message.Send_right in
  Alcotest.check_raises "no receive right" (Invalid_argument "Port_space.enable: no receive right")
    (fun () -> Port_space.enable sp n)

let test_space_status () =
  let _, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp ~backlog:7 () in
  match Port_space.status sp n with
  | Some st ->
    check Alcotest.int "queued" 0 st.Port_space.st_queued;
    check Alcotest.int "backlog" 7 st.Port_space.st_backlog;
    Alcotest.(check bool) "receive" true st.Port_space.st_has_receive
  | None -> Alcotest.fail "status missing"

(* ---- transport --------------------------------------------------------------- *)

let test_send_receive_roundtrip () =
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp () in
  let p = Port_space.lookup_exn sp n in
  in_sim eng (fun () ->
      (match Transport.send (node ctx) (Message.make ~dest:p [ data "ping" ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "send failed");
      match Transport.receive (node ctx) sp ~from:(`Port n) () with
      | Ok msg -> check Alcotest.string "payload" "ping" (Bytes.to_string (Message.data_exn msg))
      | Error _ -> Alcotest.fail "receive failed")

let test_send_to_dead_port () =
  let eng, _, ctx = make_ctx () in
  let p = Port.create ctx ~home:0 ~drop:Message.discard () in
  Port.destroy p;
  in_sim eng (fun () ->
      match Transport.send (node ctx) (Message.make ~dest:p [ data "x" ]) with
      | Error Transport.Send_invalid_port -> ()
      | Ok () | Error _ -> Alcotest.fail "expected invalid port")

let test_send_timeout_on_full_queue () =
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp ~backlog:1 () in
  let p = Port_space.lookup_exn sp n in
  in_sim eng (fun () ->
      (match Transport.send (node ctx) (Message.make ~dest:p [ data "1" ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "first send");
      match Transport.send (node ctx) ~timeout:50.0 (Message.make ~dest:p [ data "2" ]) with
      | Error Transport.Send_timed_out -> ()
      | Ok () | Error _ -> Alcotest.fail "expected timeout")

let test_port_set_backlog_syscall () =
  (* Table 3-2's port_set_backlog, called by a task: with a backlog of
     [n] the (n+1)th queued send times out, and once the backlog is
     raised by one the same send goes through. *)
  let sys = Mach.Kernel.create_system () in
  let result = ref None in
  Engine.spawn sys.Mach.Kernel.engine ~name:"setup" (fun () ->
      let task = Mach.Task.create sys.Mach.Kernel.kernel ~name:"app" () in
      ignore
        (Mach.Thread.spawn task ~name:"app.main" (fun () ->
             let n = 3 in
             let name = Mach.Syscalls.port_allocate task ~backlog:n () in
             let port = Option.get (Mach.Syscalls.port_lookup task name) in
             let send () =
               Mach.Syscalls.msg_send task ~timeout:50.0 (Message.make ~dest:port [ data "x" ])
             in
             let queued = List.init n (fun _ -> send ()) in
             let over = send () in
             Mach.Syscalls.port_set_backlog task name (n + 1);
             result := Some (queued, over, send ()))));
  Engine.run sys.Mach.Kernel.engine;
  match !result with
  | None -> Alcotest.fail "sender blocked forever"
  | Some (queued, over, raised) ->
    List.iter
      (function Ok () -> () | Error _ -> Alcotest.fail "a send within the backlog failed")
      queued;
    (match over with
    | Error Transport.Send_timed_out -> ()
    | Ok () | Error _ -> Alcotest.fail "the send past the backlog should time out");
    match raised with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "the send after raising the backlog failed"

let test_port_set_backlog_admits_blocked_sender () =
  (* Table 3-2's port_set_backlog with a sender already blocked on the
     full queue: raising the backlog admits it without a receive. *)
  let sys = Mach.Kernel.create_system () in
  let eng = sys.Mach.Kernel.engine in
  let result = ref None in
  Engine.spawn eng ~name:"setup" (fun () ->
      let task = Mach.Task.create sys.Mach.Kernel.kernel ~name:"app" () in
      ignore
        (Mach.Thread.spawn task ~name:"app.main" (fun () ->
             let name = Mach.Syscalls.port_allocate task ~backlog:1 () in
             let port = Option.get (Mach.Syscalls.port_lookup task name) in
             let send ?timeout s =
               Mach.Syscalls.msg_send task ?timeout (Message.make ~dest:port [ data s ])
             in
             let first = send "1" in
             let over = send ~timeout:50.0 "2" in
             let blocked = ref None in
             ignore (Mach.Thread.spawn task ~name:"app.sender" (fun () -> blocked := Some (send "3")));
             Engine.sleep 1_000.0;
             let before = !blocked in
             Mach.Syscalls.port_set_backlog task name 4;
             Engine.sleep 1_000.0;
             result := Some (first, over, before, !blocked, Mach.Syscalls.port_status task name))));
  Engine.run eng;
  match !result with
  | None -> Alcotest.fail "app.main blocked forever"
  | Some (first, over, before, after, status) -> (
    (match first with Ok () -> () | Error _ -> Alcotest.fail "the send within the backlog failed");
    (match over with
    | Error Transport.Send_timed_out -> ()
    | Ok () | Error _ -> Alcotest.fail "the timed send past the backlog should time out");
    Alcotest.(check bool) "untimed sender blocked on the full queue" true (before = None);
    (match after with
    | Some (Ok ()) -> ()
    | Some (Error _) -> Alcotest.fail "the admitted send failed"
    | None -> Alcotest.fail "raising the backlog left the sender blocked");
    match status with
    | Some st ->
      check Alcotest.int "backlog" 4 st.Port_space.st_backlog;
      check Alcotest.int "queued" 2 st.Port_space.st_queued
    | None -> Alcotest.fail "status missing")

let test_receive_timeout () =
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp () in
  in_sim eng (fun () ->
      match Transport.receive (node ctx) sp ~from:(`Port n) ~timeout:40.0 () with
      | Error Transport.Recv_timed_out -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected timeout")

let test_receive_requires_receive_right () =
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let p = Port.create ctx ~home:0 ~drop:Message.discard () in
  let n = Port_space.insert sp p Message.Send_right in
  in_sim eng (fun () ->
      match Transport.receive (node ctx) sp ~from:(`Port n) () with
      | Error Transport.Recv_invalid_port -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected invalid port")

let test_receive_any_from_enabled_set () =
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n1 = Port_space.allocate sp () in
  let n2 = Port_space.allocate sp () in
  Port_space.enable sp n1;
  Port_space.enable sp n2;
  let p2 = Port_space.lookup_exn sp n2 in
  in_sim eng (fun () ->
      (match Transport.send (node ctx) (Message.make ~dest:p2 [ data "via-2" ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "send");
      match Transport.receive (node ctx) sp ~from:`Any () with
      | Ok msg -> check Alcotest.string "right message" "via-2" (Bytes.to_string (Message.data_exn msg))
      | Error _ -> Alcotest.fail "receive-any failed")

let test_receive_any_blocks_until_arrival () =
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp () in
  Port_space.enable sp n;
  let p = Port_space.lookup_exn sp n in
  let got_at = ref 0.0 in
  Engine.spawn eng ~name:"receiver" (fun () ->
      match Transport.receive (node ctx) sp ~from:`Any () with
      | Ok _ -> got_at := Engine.now eng
      | Error _ -> ());
  Engine.spawn eng ~name:"sender" (fun () ->
      Engine.sleep 500.0;
      ignore (Transport.send (node ctx) (Message.make ~dest:p [ data "late" ])));
  Engine.run eng;
  Alcotest.(check bool) "woken after send" true (!got_at >= 500.0)

let test_caps_inserted_on_receive () =
  let eng, _, ctx = make_ctx () in
  let sender_sp = Port_space.create ctx ~home:0 in
  let recv_sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate recv_sp () in
  let dest = Port_space.lookup_exn recv_sp n in
  let gift_name = Port_space.allocate sender_sp () in
  let gift = Port_space.lookup_exn sender_sp gift_name in
  in_sim eng (fun () ->
      (match
         Transport.send (node ctx)
           (Message.make ~dest
              [ Message.Caps [ { Message.cap_port = gift; cap_right = Message.Send_right } ] ])
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "send");
      match Transport.receive (node ctx) recv_sp ~from:(`Port n) () with
      | Ok _ ->
        (* The receiver's space now holds a send right on the gift. *)
        (match Port_space.name_of recv_sp gift with
        | Some gname -> Alcotest.(check bool) "send right" true (Port_space.has_send recv_sp gname)
        | None -> Alcotest.fail "cap not inserted")
      | Error _ -> Alcotest.fail "receive")

let test_rpc () =
  let eng, _, ctx = make_ctx () in
  let client_sp = Port_space.create ctx ~home:0 in
  let server_sp = Port_space.create ctx ~home:0 in
  let svc_n = Port_space.allocate server_sp () in
  let svc = Port_space.lookup_exn server_sp svc_n in
  let reply_n = Port_space.allocate client_sp () in
  let reply = Port_space.lookup_exn client_sp reply_n in
  Engine.spawn eng ~name:"server" (fun () ->
      match Transport.receive (node ctx) server_sp ~from:(`Port svc_n) () with
      | Ok msg ->
        let r = Option.get msg.Message.header.reply in
        ignore (Transport.send (node ctx) (Message.make ~dest:r [ data "pong" ]))
      | Error _ -> ());
  in_sim eng (fun () ->
      match Transport.rpc (node ctx) client_sp (Message.make ~reply ~dest:svc [ data "ping" ]) with
      | Ok resp -> check Alcotest.string "reply" "pong" (Bytes.to_string (Message.data_exn resp))
      | Error _ -> Alcotest.fail "rpc failed")

let test_cross_host_latency () =
  let eng, _, ctx = make_ctx () in
  let remote_sp = Port_space.create ctx ~home:1 in
  let n = Port_space.allocate remote_sp () in
  let p = Port_space.lookup_exn remote_sp n in
  let sent_at = ref 0.0 and got_at = ref 0.0 in
  Engine.spawn eng ~name:"remote-receiver" (fun () ->
      match Transport.receive (node ~host:1 ctx) remote_sp ~from:(`Port n) () with
      | Ok _ -> got_at := Engine.now eng
      | Error _ -> ());
  Engine.spawn eng ~name:"local-sender" (fun () ->
      (match Transport.send (node ctx) (Message.make ~dest:p [ data "wire" ]) with
      | Ok () -> sent_at := Engine.now eng
      | Error _ -> ()));
  Engine.run eng;
  (* The net was created with 100us latency + 1us/byte. *)
  Alcotest.(check bool) "network delay applied" true (!got_at -. !sent_at >= 100.0)

let test_send_cost_scales_with_mode () =
  let _, _, ctx = make_ctx () in
  let n = node ctx in
  let dest = Port.create ctx ~home:0 ~drop:Message.discard () in
  let big = Bytes.create 65536 in
  let copy_msg = Message.make ~dest [ Message.Data big ] in
  let map_msg = Message.make ~dest [ Message.Ool big ] in
  let c = Transport.send_cost_us n copy_msg in
  let m = Transport.send_cost_us n map_msg in
  Alcotest.(check bool) "copy much dearer than map" true (c > 3.0 *. m)

let test_receiver_woken_by_port_death () =
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp () in
  let outcome = ref `Pending in
  Engine.spawn eng ~name:"blocked-receiver" (fun () ->
      match Transport.receive (node ctx) sp ~from:(`Port n) () with
      | Ok _ -> outcome := `Got_message
      | Error Transport.Recv_invalid_port -> outcome := `Port_died
      | Error _ -> outcome := `Other);
  Engine.spawn eng ~name:"killer" (fun () ->
      Engine.sleep 100.0;
      Port_space.deallocate sp n);
  Engine.run eng;
  (match !outcome with
  | `Port_died -> ()
  | `Pending -> Alcotest.fail "receiver still blocked after port death"
  | `Got_message | `Other -> Alcotest.fail "wrong outcome");
  check Alcotest.int "no leaked blocked threads" 0 (Engine.live eng)

let test_blocked_sender_woken_by_port_death () =
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp ~backlog:1 () in
  let p = Port_space.lookup_exn sp n in
  let outcome = ref `Pending in
  Engine.spawn eng ~name:"blocked-sender" (fun () ->
      ignore (Transport.send (node ctx) (Message.make ~dest:p [ data "1" ]));
      match Transport.send (node ctx) (Message.make ~dest:p [ data "2" ]) with
      | Ok () -> outcome := `Sent
      | Error Transport.Send_invalid_port -> outcome := `Port_died
      | Error _ -> outcome := `Other);
  Engine.spawn eng ~name:"killer" (fun () ->
      Engine.sleep 100.0;
      Port_space.deallocate sp n);
  Engine.run eng;
  match !outcome with
  | `Port_died -> ()
  | `Pending -> Alcotest.fail "sender still blocked after port death"
  | `Sent | `Other -> Alcotest.fail "wrong outcome"

(* ---- ready-port FIFO (O(1) receive-any) ----------------------------------- *)

let test_receive_any_arrival_order () =
  (* receive-any must drain ports in message-arrival order, not name
     order: the ready FIFO remembers which port went non-empty first. *)
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n1 = Port_space.allocate sp () in
  let n2 = Port_space.allocate sp () in
  let n3 = Port_space.allocate sp () in
  List.iter (Port_space.enable sp) [ n1; n2; n3 ];
  let p1 = Port_space.lookup_exn sp n1 in
  let p2 = Port_space.lookup_exn sp n2 in
  let p3 = Port_space.lookup_exn sp n3 in
  in_sim eng (fun () ->
      let nd = node ctx in
      (* Sends are sequential in simulated time: arrival order is c, a, b. *)
      ignore (Transport.send nd (Message.make ~dest:p3 [ data "c" ]));
      ignore (Transport.send nd (Message.make ~dest:p1 [ data "a" ]));
      ignore (Transport.send nd (Message.make ~dest:p2 [ data "b" ]));
      let next () =
        match Transport.receive nd sp ~from:`Any () with
        | Ok msg -> Bytes.to_string (Message.data_exn msg)
        | Error _ -> Alcotest.fail "receive-any failed"
      in
      let r1 = next () in
      let r2 = next () in
      let r3 = next () in
      check Alcotest.(list string) "arrival order" [ "c"; "a"; "b" ] [ r1; r2; r3 ])

let test_receive_any_same_port_drains () =
  (* Two messages on one ready port: the port is requeued after the
     first receive so the second is still reachable by receive-any. *)
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp () in
  Port_space.enable sp n;
  let p = Port_space.lookup_exn sp n in
  in_sim eng (fun () ->
      let nd = node ctx in
      ignore (Transport.send nd (Message.make ~dest:p [ data "first" ]));
      ignore (Transport.send nd (Message.make ~dest:p [ data "second" ]));
      let next () =
        match Transport.receive nd sp ~from:`Any () with
        | Ok msg -> Bytes.to_string (Message.data_exn msg)
        | Error _ -> Alcotest.fail "receive-any failed"
      in
      let r1 = next () in
      let r2 = next () in
      check Alcotest.(list string) "fifo within port" [ "first"; "second" ] [ r1; r2 ])

let test_enable_seeds_ready () =
  (* A port that already has queued messages when it is enabled must
     become receivable by receive-any without a fresh arrival. *)
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp () in
  let p = Port_space.lookup_exn sp n in
  in_sim eng (fun () ->
      let nd = node ctx in
      ignore (Transport.send nd (Message.make ~dest:p [ data "early" ]));
      Port_space.enable sp n;
      match Transport.receive nd sp ~from:`Any ~timeout:10.0 () with
      | Ok msg -> check Alcotest.string "queued message found" "early"
                    (Bytes.to_string (Message.data_exn msg))
      | Error _ -> Alcotest.fail "receive-any missed the pre-enable message")

let test_no_spurious_wakeups () =
  (* The thundering-herd check: many idle enabled ports, several blocked
     receive-any waiters, one message. Exactly one waiter must wake and
     consume it; nobody may wake to find nothing ready. *)
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let names = List.init 16 (fun _ -> Port_space.allocate sp ()) in
  List.iter (Port_space.enable sp) names;
  let target = Port_space.lookup_exn sp (List.nth names 11) in
  let nd = node ctx in
  let got = ref 0 and timed_out = ref 0 in
  for i = 1 to 3 do
    Engine.spawn eng ~name:(Printf.sprintf "waiter-%d" i) (fun () ->
        match Transport.receive nd sp ~from:`Any ~timeout:5_000.0 () with
        | Ok _ -> incr got
        | Error Transport.Recv_timed_out -> incr timed_out
        | Error _ -> ())
  done;
  Engine.spawn eng ~name:"sender" (fun () ->
      Engine.sleep 200.0;
      ignore (Transport.send (node ctx) (Message.make ~dest:target [ data "one" ])));
  Engine.run eng;
  check Alcotest.int "exactly one winner" 1 !got;
  check Alcotest.int "losers timed out quietly" 2 !timed_out;
  check Alcotest.int "zero spurious wakeups" 0 (Counters.value nd.Transport.node_stats "spurious_wakeups");
  check Alcotest.int "no leaked threads" 0 (Engine.live eng)

let test_rpc_fastpath_counter () =
  (* A small fully-inline message sent to a port with a blocked receiver
     hands off directly; a large one takes the ordinary queue path. *)
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp () in
  let p = Port_space.lookup_exn sp n in
  let nd = node ctx in
  let received = ref 0 in
  Engine.spawn eng ~name:"receiver" (fun () ->
      for _ = 1 to 2 do
        match Transport.receive nd sp ~from:(`Port n) () with
        | Ok _ -> incr received
        | Error _ -> ()
      done);
  Engine.spawn eng ~name:"sender" (fun () ->
      Engine.sleep 50.0;
      (* Receiver is blocked: small inline message takes the fast path. *)
      ignore (Transport.send nd (Message.make ~dest:p [ data "hi" ]));
      Engine.sleep 50.0;
      (* Past the inline threshold: normal path, counter unchanged. *)
      ignore
        (Transport.send nd
           (Message.make ~dest:p
              [ Message.Data (Bytes.create (Transport.fastpath_inline_bytes + 1)) ])));
  Engine.run eng;
  check Alcotest.int "both delivered" 2 !received;
  check Alcotest.int "one fastpath handoff" 1 (Counters.value nd.Transport.node_stats "rpc_fastpath")

let test_remote_burst_single_daemon () =
  (* A burst of cross-host sends drains through one per-destination
     delivery daemon (not a thread per message), stays in order even
     when the destination queue is smaller than the burst, and the
     daemon exits once idle. *)
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:1 in
  let n = Port_space.allocate sp ~backlog:4 () in
  let p = Port_space.lookup_exn sp n in
  let burst = 20 in
  let received = ref [] in
  Engine.spawn eng ~name:"sender" (fun () ->
      let nd = node ~host:0 ctx in
      for i = 1 to burst do
        ignore (Transport.send nd (Message.make ~dest:p [ data (string_of_int i) ]))
      done);
  Engine.spawn eng ~name:"receiver" (fun () ->
      let nd = node ~host:1 ctx in
      for _ = 1 to burst do
        (* Slow consumer: the daemon must block on the full port queue
           and resume, not drop or reorder. *)
        Engine.sleep 30.0;
        match Transport.receive nd sp ~from:(`Port n) () with
        | Ok msg -> received := Bytes.to_string (Message.data_exn msg) :: !received
        | Error _ -> ()
      done);
  Engine.run eng;
  check Alcotest.(list string) "burst in order"
    (List.init burst (fun i -> string_of_int (i + 1)))
    (List.rev !received);
  check Alcotest.int "daemon drained its backlog" 0 (Context.delivery_backlog ctx ~dst:1);
  check Alcotest.int "daemon exited when idle" 0 (Engine.live eng)

(* qcheck: per-port FIFO — any interleaving of sends from multiple
   senders is received in a per-sender order-preserving sequence. *)
let fifo_prop =
  let open QCheck2 in
  Test.make ~name:"per-sender message order preserved" ~count:50
    Gen.(list_size (int_range 1 20) (int_range 0 2))
    (fun send_plan ->
      let eng, _, ctx = make_ctx () in
      let sp = Port_space.create ctx ~home:0 in
      let n = Port_space.allocate sp ~backlog:64 () in
      let p = Port_space.lookup_exn sp n in
      (* Three senders; the plan dictates global send order. Per-sender
         subsequences must arrive in order. *)
      let seq = Array.make 3 0 in
      let received = ref [] in
      Engine.spawn eng ~name:"senders" (fun () ->
          List.iter
            (fun sender ->
              let k = seq.(sender) in
              seq.(sender) <- k + 1;
              let e = Mach_util.Codec.Enc.create () in
              Mach_util.Codec.Enc.int e sender;
              Mach_util.Codec.Enc.int e k;
              ignore
                (Transport.send (node ctx)
                   (Message.make ~dest:p [ Message.Data (Mach_util.Codec.Enc.to_bytes e) ])))
            send_plan);
      Engine.spawn eng ~name:"receiver" (fun () ->
          for _ = 1 to List.length send_plan do
            match Transport.receive (node ctx) sp ~from:(`Port n) () with
            | Ok msg ->
              let d = Mach_util.Codec.Dec.of_bytes (Message.data_exn msg) in
              let sender = Mach_util.Codec.Dec.int d in
              let k = Mach_util.Codec.Dec.int d in
              received := (sender, k) :: !received
            | Error _ -> ()
          done);
      Engine.run eng;
      let received = List.rev !received in
      (* Check per-sender monotonicity. *)
      let last = Array.make 3 (-1) in
      List.for_all
        (fun (sender, k) ->
          let ok = k = last.(sender) + 1 in
          last.(sender) <- k;
          ok)
        received
      && List.length received = List.length send_plan)

let () =
  Alcotest.run "ipc"
    [
      ( "port",
        [
          Alcotest.test_case "identity" `Quick test_port_identity;
          Alcotest.test_case "death hooks" `Quick test_port_death_hooks;
          Alcotest.test_case "backlog accessors" `Quick test_port_backlog_accessors;
        ] );
      ("message", [ Alcotest.test_case "size accounting" `Quick test_message_accounting ]);
      ( "port_space",
        [
          Alcotest.test_case "allocate and lookup" `Quick test_space_allocate_lookup;
          Alcotest.test_case "rights coalesce" `Quick test_space_rights_coalesce;
          Alcotest.test_case "deallocating receive destroys port" `Quick
            test_space_deallocate_receive_destroys;
          Alcotest.test_case "death notification" `Quick test_space_death_notification;
          Alcotest.test_case "enable/disable" `Quick test_space_enable_disable;
          Alcotest.test_case "enable requires receive" `Quick test_space_enable_requires_receive;
          Alcotest.test_case "status" `Quick test_space_status;
        ] );
      ( "transport",
        [
          Alcotest.test_case "send/receive roundtrip" `Quick test_send_receive_roundtrip;
          Alcotest.test_case "send to dead port" `Quick test_send_to_dead_port;
          Alcotest.test_case "send timeout on full queue" `Quick test_send_timeout_on_full_queue;
          Alcotest.test_case "port_set_backlog syscall" `Quick test_port_set_backlog_syscall;
          Alcotest.test_case "port_set_backlog admits a blocked sender" `Quick
            test_port_set_backlog_admits_blocked_sender;
          Alcotest.test_case "receive timeout" `Quick test_receive_timeout;
          Alcotest.test_case "receive needs receive right" `Quick test_receive_requires_receive_right;
          Alcotest.test_case "receive-any from enabled set" `Quick test_receive_any_from_enabled_set;
          Alcotest.test_case "receive-any blocks until arrival" `Quick
            test_receive_any_blocks_until_arrival;
          Alcotest.test_case "caps inserted on receive" `Quick test_caps_inserted_on_receive;
          Alcotest.test_case "rpc" `Quick test_rpc;
          Alcotest.test_case "cross-host latency" `Quick test_cross_host_latency;
          Alcotest.test_case "copy vs map send cost" `Quick test_send_cost_scales_with_mode;
          Alcotest.test_case "receiver woken by port death" `Quick
            test_receiver_woken_by_port_death;
          Alcotest.test_case "blocked sender woken by port death" `Quick
            test_blocked_sender_woken_by_port_death;
          QCheck_alcotest.to_alcotest fifo_prop;
        ] );
      ( "ready-fifo",
        [
          Alcotest.test_case "receive-any in arrival order" `Quick
            test_receive_any_arrival_order;
          Alcotest.test_case "same port drains fully" `Quick test_receive_any_same_port_drains;
          Alcotest.test_case "enable seeds ready queue" `Quick test_enable_seeds_ready;
          Alcotest.test_case "no spurious wakeups" `Quick test_no_spurious_wakeups;
          Alcotest.test_case "rpc fastpath counter" `Quick test_rpc_fastpath_counter;
          Alcotest.test_case "remote burst through one daemon" `Quick
            test_remote_burst_single_daemon;
        ] );
    ]
