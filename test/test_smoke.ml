(* End-to-end smoke tests: if these pass, the simulated kernel boots,
   tasks allocate and touch memory, fork is copy-on-write, and the
   external pager protocol round-trips through real IPC. *)

open Mach

let check = Alcotest.check
let page = 4096

let with_system f =
  let sys = Kernel.create_system () in
  let result = ref None in
  let task = Task.create sys.Kernel.kernel ~name:"app" () in
  ignore (Thread.spawn task ~name:"app.main" (fun () -> result := Some (f sys task)));
  Engine.run sys.Kernel.engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "main thread did not complete (deadlock?)"

let test_zero_fill () =
  with_system (fun _sys task ->
      let addr = Syscalls.vm_allocate task ~size:(4 * page) ~anywhere:true () in
      (match Syscalls.read_bytes task ~addr ~len:16 () with
      | Ok b -> check Alcotest.string "zero filled" (String.make 16 '\000') (Bytes.to_string b)
      | Error e -> Alcotest.failf "read failed: %a" Access.pp_error e);
      match Syscalls.write_bytes task ~addr (Bytes.of_string "hello mach") () with
      | Ok () -> (
        match Syscalls.read_bytes task ~addr ~len:10 () with
        | Ok b -> check Alcotest.string "written back" "hello mach" (Bytes.to_string b)
        | Error e -> Alcotest.failf "re-read failed: %a" Access.pp_error e)
      | Error e -> Alcotest.failf "write failed: %a" Access.pp_error e)

let test_fork_cow () =
  with_system (fun sys task ->
      let addr = Syscalls.vm_allocate task ~size:(2 * page) ~anywhere:true () in
      (match Syscalls.write_bytes task ~addr (Bytes.of_string "parent-data") () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "parent write: %a" Access.pp_error e);
      (* Default inheritance is copy. *)
      let child = Task.create sys.Kernel.kernel ~parent:task ~name:"child" () in
      let child_read = ref "" in
      let done_ = Ivar.create () in
      ignore
        (Thread.spawn child ~name:"child.main" (fun () ->
             (match Syscalls.read_bytes child ~addr ~len:11 () with
             | Ok b -> child_read := Bytes.to_string b
             | Error e -> Alcotest.failf "child read: %a" Access.pp_error e);
             (* Child writes; parent must not see it. *)
             (match Syscalls.write_bytes child ~addr (Bytes.of_string "child-writes") () with
             | Ok () -> ()
             | Error e -> Alcotest.failf "child write: %a" Access.pp_error e);
             Ivar.fill done_ ()));
      Ivar.read done_;
      check Alcotest.string "child saw parent data" "parent-data" !child_read;
      match Syscalls.read_bytes task ~addr ~len:11 () with
      | Ok b -> check Alcotest.string "parent unaffected by child write" "parent-data" (Bytes.to_string b)
      | Error e -> Alcotest.failf "parent re-read: %a" Access.pp_error e)

let test_ipc_roundtrip () =
  with_system (fun sys task ->
      let server = Task.create sys.Kernel.kernel ~name:"server" () in
      let service_name = Syscalls.port_allocate server () in
      let service_port = Port_space.lookup_exn (Task.space server) service_name in
      ignore
        (Thread.spawn server ~name:"server.main" (fun () ->
             match Syscalls.msg_receive server ~from:(`Port service_name) () with
             | Ok msg -> (
               let reply = match msg.Message.header.reply with Some r -> r | None -> assert false in
               let payload = Message.data_exn msg in
               let resp = Bytes.uppercase_ascii payload in
               match Syscalls.msg_send server (Message.make ~dest:reply [ Message.Data resp ]) with
               | Ok () -> ()
               | Error _ -> Alcotest.fail "server reply failed")
             | Error _ -> Alcotest.fail "server receive failed"));
      let reply_name = Syscalls.port_allocate task () in
      let reply_port = Port_space.lookup_exn (Task.space task) reply_name in
      let msg =
        Message.make ~reply:reply_port ~dest:service_port [ Message.Data (Bytes.of_string "hello") ]
      in
      match Syscalls.msg_rpc task msg () with
      | Ok resp -> check Alcotest.string "rpc echo" "HELLO" (Bytes.to_string (Message.data_exn resp))
      | Error _ -> Alcotest.fail "rpc failed")

(* A manager that serves pages whose bytes encode the page index. *)
let test_external_pager () =
  with_system (fun sys task ->
      let mgr_task = Task.create sys.Kernel.kernel ~name:"mgr" () in
      let policy =
        {
          Pager_runtime.default_policy with
          (* One page per request, so each fault below asks the manager. *)
          Pager_runtime.p_reshape = (fun _ _ ~first ~npages:_ -> (first, 1));
          Pager_runtime.p_read =
            (fun _ _ ~request:_ ~page:p ~npages:_ ~desired_access:_ ->
              Pager_runtime.Data (Bytes.make page (Char.chr (0x41 + (p mod 26)))));
        }
      in
      let rt, server = Memory_object_server.serve mgr_task policy in
      let memory_object = Memory_object_server.create_memory_object server () in
      ignore (Pager_runtime.register rt ~memory_object ());
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(8 * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      (* Fault in pages 0 and 3. *)
      (match Syscalls.read_bytes task ~addr ~len:4 () with
      | Ok b -> check Alcotest.string "page 0 content" "AAAA" (Bytes.to_string b)
      | Error e -> Alcotest.failf "pager read: %a" Access.pp_error e);
      (match Syscalls.read_bytes task ~addr:(addr + (3 * page)) ~len:4 () with
      | Ok b -> check Alcotest.string "page 3 content" "DDDD" (Bytes.to_string b)
      | Error e -> Alcotest.failf "pager read 3: %a" Access.pp_error e);
      let stats = Kernel.stats sys.Kernel.kernel in
      Alcotest.(check bool) "data requests sent" true (Counters.get stats Vm_types.s_data_requests >= 2);
      Alcotest.(check bool) "pageins recorded" true (Counters.get stats Vm_types.s_pageins >= 2))

let test_spawn_and_run_helper () =
  let sys = Kernel.create_system () in
  let seen = ref 0 in
  spawn_and_run sys ~name:"helper-app" (fun task ->
      let addr = Syscalls.vm_allocate task ~size:page ~anywhere:true () in
      (match Syscalls.write_bytes task ~addr (Bytes.of_string "via-helper") () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %a" Access.pp_error e);
      seen := 1);
  check Alcotest.int "helper ran the body" 1 !seen

let () =
  Alcotest.run "smoke"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "zero-fill allocate/read/write" `Quick test_zero_fill;
          Alcotest.test_case "fork is copy-on-write" `Quick test_fork_cow;
          Alcotest.test_case "ipc rpc roundtrip" `Quick test_ipc_roundtrip;
          Alcotest.test_case "external pager pagein" `Quick test_external_pager;
          Alcotest.test_case "spawn_and_run helper" `Quick test_spawn_and_run_helper;
        ] );
    ]
