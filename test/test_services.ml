(* Newer kernel services and API extensions: vm_wire, the name server,
   Minimal_fs.map_file, and the Memory_object_server host itself. *)

open Mach
module Minimal_fs = Mach_pagers.Minimal_fs
module Camelot = Mach_pagers.Camelot
module Mos = Memory_object_server

let check = Alcotest.check
let page = 4096

let with_system ?config f =
  let sys = Kernel.create_system ?config () in
  let result = ref None in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let task = Task.create sys.Kernel.kernel ~name:"app" () in
      ignore (Thread.spawn task ~name:"app.main" (fun () -> result := Some (f sys task))));
  Engine.run sys.Kernel.engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "main thread did not complete (deadlock?)"

(* ---- vm_wire -------------------------------------------------------------- *)

let test_wired_pages_survive_pressure () =
  let config = { Kernel.default_config with Kernel.phys_frames = 64 } in
  with_system ~config (fun sys task ->
      let wired_pages = 4 in
      let wired = Syscalls.vm_allocate task ~size:(wired_pages * page) ~anywhere:true () in
      for i = 0 to wired_pages - 1 do
        ignore (Syscalls.write_bytes task ~addr:(wired + (i * page)) (Bytes.of_string "pinned") ())
      done;
      (match Syscalls.vm_wire task ~addr:wired ~size:(wired_pages * page) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "wire: %a" Access.pp_error e);
      (* Stream enough anonymous memory to evict everything evictable. *)
      let n = 150 in
      let churn = Syscalls.vm_allocate task ~size:(n * page) ~anywhere:true () in
      for i = 0 to n - 1 do
        ignore (Syscalls.write_bytes task ~addr:(churn + (i * page)) (Bytes.make 8 'c') ())
      done;
      (* The wired pages must never have been paged out: reading them
         causes no pageins. *)
      let before = Counters.get (Kernel.stats sys.Kernel.kernel) Vm_types.s_pageins in
      for i = 0 to wired_pages - 1 do
        match Syscalls.read_bytes task ~addr:(wired + (i * page)) ~len:6 () with
        | Ok b -> check Alcotest.string "pinned data" "pinned" (Bytes.to_string b)
        | Error e -> Alcotest.failf "wired read: %a" Access.pp_error e
      done;
      let after = Counters.get (Kernel.stats sys.Kernel.kernel) Vm_types.s_pageins in
      check Alcotest.int "no pageins for wired pages" 0 (after - before);
      (* After unwiring they become evictable again (no crash). *)
      Syscalls.vm_unwire task ~addr:wired ~size:(wired_pages * page))

let test_wire_faults_pages_in () =
  with_system (fun _sys task ->
      let addr = Syscalls.vm_allocate task ~size:(2 * page) ~anywhere:true () in
      (* Never touched: wiring itself must fault the pages in. *)
      (match Syscalls.vm_wire task ~addr ~size:(2 * page) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "wire: %a" Access.pp_error e);
      match Syscalls.read_bytes task ~addr ~len:4 () with
      | Ok b -> check Alcotest.string "zeroed" "\000\000\000\000" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read: %a" Access.pp_error e)

(* ---- name server ----------------------------------------------------------- *)

let test_name_server_check_in_look_up () =
  with_system (fun sys task ->
      let ns = Name_server.start sys.Kernel.kernel () in
      let server = Name_server.service_port ns in
      let my_name = Syscalls.port_allocate task () in
      let my_port = Port_space.lookup_exn (Task.space task) my_name in
      (match Name_server.Client.check_in task ~server "my-service" my_port with
      | Ok () -> ()
      | Error e -> Alcotest.failf "check_in: %a" Name_server.Client.pp_error e);
      check Alcotest.(list string) "registered" [ "my-service" ] (Name_server.registered ns);
      (* Another task finds it and talks to it. *)
      let other = Task.create sys.Kernel.kernel ~name:"other" () in
      let got = Ivar.create () in
      ignore
        (Thread.spawn other ~name:"other.main" (fun () ->
             match Name_server.Client.look_up other ~server "my-service" with
             | Ok port ->
               ignore
                 (Syscalls.msg_send other (Message.make ~dest:port [ Message.Data (Bytes.of_string "hi") ]));
               Ivar.fill got true
             | Error _ -> Ivar.fill got false));
      Alcotest.(check bool) "looked up" true (Ivar.read got);
      match Syscalls.msg_receive task ~from:(`Port my_name) () with
      | Ok msg -> check Alcotest.string "delivered" "hi" (Bytes.to_string (Message.data_exn msg))
      | Error _ -> Alcotest.fail "message not delivered")

let test_name_server_missing_and_checkout () =
  with_system (fun sys task ->
      let ns = Name_server.start sys.Kernel.kernel () in
      let server = Name_server.service_port ns in
      (match Name_server.Client.look_up task ~server "ghost" with
      | Error `Not_found -> ()
      | Ok _ -> Alcotest.fail "expected not found"
      | Error e -> Alcotest.failf "wrong error: %a" Name_server.Client.pp_error e);
      let n = Syscalls.port_allocate task () in
      let p = Port_space.lookup_exn (Task.space task) n in
      ignore (Name_server.Client.check_in task ~server "temp" p);
      ignore (Name_server.Client.check_out task ~server "temp");
      match Name_server.Client.look_up task ~server "temp" with
      | Error `Not_found -> ()
      | Ok _ -> Alcotest.fail "should be checked out"
      | Error e -> Alcotest.failf "wrong error: %a" Name_server.Client.pp_error e)

let test_name_server_reregistration_replaces () =
  with_system (fun sys task ->
      let ns = Name_server.start sys.Kernel.kernel () in
      let server = Name_server.service_port ns in
      let n1 = Syscalls.port_allocate task () in
      let p1 = Port_space.lookup_exn (Task.space task) n1 in
      let n2 = Syscalls.port_allocate task () in
      let p2 = Port_space.lookup_exn (Task.space task) n2 in
      ignore (Name_server.Client.check_in task ~server "svc" p1);
      ignore (Name_server.Client.check_in task ~server "svc" p2);
      match Name_server.Client.look_up task ~server "svc" with
      | Ok p -> Alcotest.(check bool) "latest wins" true (Mach_ipc.Port.equal p p2)
      | Error e -> Alcotest.failf "lookup: %a" Name_server.Client.pp_error e)

let test_name_server_dead_port_pruned () =
  with_system (fun sys task ->
      let ns = Name_server.start sys.Kernel.kernel () in
      let server = Name_server.service_port ns in
      let n = Syscalls.port_allocate task () in
      let p = Port_space.lookup_exn (Task.space task) n in
      ignore (Name_server.Client.check_in task ~server "mortal" p);
      Syscalls.port_deallocate task n;
      (* receive right gone: port dead *)
      match Name_server.Client.look_up task ~server "mortal" with
      | Error `Not_found -> ()
      | Ok _ -> Alcotest.fail "dead registration must not resolve"
      | Error e -> Alcotest.failf "wrong error: %a" Name_server.Client.pp_error e)

(* ---- map_file (footnote 7) -------------------------------------------------- *)

let test_map_file_direct_rw () =
  with_system (fun sys task ->
      let disk = Disk.create sys.Kernel.engine ~name:"fsdisk" ~blocks:512 ~block_size:page () in
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let server = Minimal_fs.service_port fsrv in
      (match Minimal_fs.Client.write_file task ~server "f" (Bytes.of_string "disk-bytes") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %a" Minimal_fs.Client.pp_error e);
      let addr, size =
        match Minimal_fs.Client.map_file task ~server "f" with
        | Ok r -> r
        | Error e -> Alcotest.failf "map: %a" Minimal_fs.Client.pp_error e
      in
      check Alcotest.int "size" 10 size;
      (match Syscalls.read_bytes task ~addr ~len:size () with
      | Ok b -> check Alcotest.string "contents" "disk-bytes" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read: %a" Access.pp_error e);
      (* Direct write is allowed (no COW). *)
      match Syscalls.write_bytes task ~addr (Bytes.of_string "DIRECT") () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "direct write: %a" Access.pp_error e)

(* ---- Memory_object_server host: non-protocol traffic and stop ------------ *)

let test_mos_stop_and_on_other () =
  with_system (fun sys task ->
      let mgr = Task.create sys.Kernel.kernel ~name:"mgr" () in
      let others = ref 0 in
      let _rt, srv =
        Mos.serve mgr ~on_other:(fun _ _ _ -> incr others) Pager_runtime.default_policy
      in
      let mo = Mos.create_memory_object srv () in
      (* Non-pager traffic reaches on_other. *)
      (match Syscalls.msg_send task (Message.make ~msg_id:777 ~dest:mo [ Message.Data (Bytes.create 1) ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "send failed");
      Engine.sleep 10_000.0;
      check Alcotest.int "routed to on_other" 1 !others;
      Mos.stop srv)

(* ---- task ports (§3.2) ------------------------------------------------------ *)

let test_thread_port_ops () =
  with_system (fun sys task ->
      let worker = Task.create sys.Kernel.kernel ~name:"worker" () in
      let progress = ref 0 in
      let th = ref None in
      th :=
        Some
          (Thread.spawn worker ~name:"worker.one" (fun () ->
               for _ = 1 to 100 do
                 Thread.checkpoint (Option.get !th);
                 incr progress;
                 Engine.sleep 50.0
               done));
      (* A second thread in the same task keeps running. *)
      let other_progress = ref 0 in
      ignore
        (Thread.spawn worker ~name:"worker.two" (fun () ->
             for _ = 1 to 100 do
               incr other_progress;
               Engine.sleep 50.0
             done));
      let target = Task_server.thread_port (Option.get !th) in
      Engine.sleep 500.0;
      (match Task_server.Client.suspend task ~target with
      | Ok () -> ()
      | Error e -> Alcotest.failf "suspend: %a" Task_server.Client.pp_error e);
      Engine.sleep 100.0;
      let frozen = !progress and other_before = !other_progress in
      Engine.sleep 2_000.0;
      check Alcotest.int "target thread frozen" frozen !progress;
      Alcotest.(check bool) "sibling thread unaffected" true (!other_progress > other_before);
      (match Task_server.Client.info task ~target with
      | Ok i -> Alcotest.(check bool) "reports suspended" true i.Task_server.Client.ti_suspended
      | Error e -> Alcotest.failf "info: %a" Task_server.Client.pp_error e);
      (match Task_server.Client.resume task ~target with
      | Ok () -> ()
      | Error e -> Alcotest.failf "resume: %a" Task_server.Client.pp_error e);
      Engine.sleep 2_000.0;
      Alcotest.(check bool) "target resumed" true (!progress > frozen))

let test_task_port_info_and_remote_alloc () =
  with_system (fun sys task ->
      let victim = Task.create sys.Kernel.kernel ~name:"victim" () in
      ignore (Syscalls.vm_allocate victim ~size:(3 * page) ~anywhere:true ());
      let target = Task_server.task_port victim in
      (match Task_server.Client.info task ~target with
      | Ok i ->
        check Alcotest.string "name" "victim" i.Task_server.Client.ti_name;
        check Alcotest.int "mapped" (3 * page) i.Task_server.Client.ti_mapped_bytes
      | Error e -> Alcotest.failf "info: %a" Task_server.Client.pp_error e);
      (* Allocate memory in the victim's space by message. *)
      (match Task_server.Client.vm_allocate task ~target ~size:page with
      | Ok addr -> Alcotest.(check bool) "address returned" true (addr > 0)
      | Error e -> Alcotest.failf "remote alloc: %a" Task_server.Client.pp_error e);
      match Task_server.Client.info task ~target with
      | Ok i -> check Alcotest.int "grew" (4 * page) i.Task_server.Client.ti_mapped_bytes
      | Error e -> Alcotest.failf "info 2: %a" Task_server.Client.pp_error e)

let test_task_port_terminate_notifies () =
  with_system (fun sys task ->
      let victim = Task.create sys.Kernel.kernel ~name:"victim" () in
      let target = Task_server.task_port victim in
      (* Hold a send right so we are notified of the port's death. *)
      ignore (Syscalls.port_insert task target Message.Send_right);
      (match Task_server.Client.terminate task ~target with
      | Ok () -> ()
      | Error e -> Alcotest.failf "terminate: %a" Task_server.Client.pp_error e);
      Alcotest.(check bool) "task dead" false (Task.alive victim);
      (* The representing port died with the task. *)
      match Port_space.next_notification (Task.space task) ~timeout:100_000.0 () with
      | Some (Port_space.Port_deleted _) -> ()
      | None -> Alcotest.fail "expected task-port death notification")

let test_cross_host_suspend () =
  (* §3.2: "a thread can suspend another thread by sending a suspend
     message to the port representing that other thread even if the
     request is initiated on another node in a network." *)
  let cluster = Kernel.create_cluster ~hosts:2 () in
  let progressed_while_suspended = ref (-1) in
  let finished = ref false in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      let worker_task = Task.create cluster.Kernel.c_kernels.(0) ~name:"worker" () in
      let controller = Task.create cluster.Kernel.c_kernels.(1) ~name:"controller" () in
      let progress = ref 0 in
      let th = ref None in
      th :=
        Some
          (Thread.spawn worker_task ~name:"worker.loop" (fun () ->
               for _ = 1 to 1000 do
                 Thread.checkpoint (Option.get !th);
                 incr progress;
                 Engine.sleep 100.0
               done));
      ignore
        (Thread.spawn controller ~name:"controller.main" (fun () ->
             Engine.sleep 1_000.0;
             let target = Task_server.task_port worker_task in
             (match Task_server.Client.suspend controller ~target with
             | Ok () -> ()
             | Error e -> Alcotest.failf "suspend: %a" Task_server.Client.pp_error e);
             Engine.sleep 500.0;
             (* Allow in-flight step to finish, then observe stillness. *)
             let p0 = !progress in
             Engine.sleep 5_000.0;
             progressed_while_suspended := !progress - p0;
             (match Task_server.Client.resume controller ~target with
             | Ok () -> ()
             | Error e -> Alcotest.failf "resume: %a" Task_server.Client.pp_error e);
             Engine.sleep 5_000.0;
             Alcotest.(check bool) "progress after resume" true (!progress > p0);
             finished := true)));
  Engine.run ~until:2_000_000.0 cluster.Kernel.c_engine;
  check Alcotest.int "no progress while suspended" 0 !progressed_while_suspended;
  Alcotest.(check bool) "controller finished" true !finished

(* ---- one request/reply stub --------------------------------------------- *)

(* A server that answers every request with an empty data item, which
   holds no status: every client reports the reply as an error rather
   than raising out of the decoder. *)
let test_malformed_reply_is_error () =
  with_system (fun sys task ->
      let bogus = Task.create sys.Kernel.kernel ~name:"bogus" () in
      let name = Syscalls.port_allocate bogus () in
      let server = Port_space.lookup_exn (Task.space bogus) name in
      ignore
        (Thread.spawn bogus ~name:"bogus.main" (fun () ->
             let rec loop () =
               match Syscalls.msg_receive bogus ~from:(`Port name) () with
               | Ok { Message.header = { Message.reply = Some dest; _ }; _ } ->
                 ignore (Syscalls.msg_send bogus (Message.make ~dest [ Message.Data Bytes.empty ]));
                 loop ()
               | Ok _ -> loop ()
               | Error _ -> ()
             in
             loop ()));
      (match Minimal_fs.Client.list_files task ~server with
      | Error (`Server_error _) -> ()
      | _ -> Alcotest.fail "list_files: expected a server error");
      (match Camelot.Client.begin_txn task ~server with
      | Error (`Server_error _) -> ()
      | _ -> Alcotest.fail "begin_txn: expected a server error");
      (match Name_server.Client.look_up task ~server "svc" with
      | Error `Malformed -> ()
      | _ -> Alcotest.fail "look_up: expected a malformed reply");
      match Task_server.Client.info task ~target:server with
      | Error `Malformed -> ()
      | _ -> Alcotest.fail "info: expected a malformed reply")

let () =
  Alcotest.run "services"
    [
      ( "vm_wire",
        [
          Alcotest.test_case "wired pages survive pressure" `Quick
            test_wired_pages_survive_pressure;
          Alcotest.test_case "wire faults pages in" `Quick test_wire_faults_pages_in;
        ] );
      ( "name-server",
        [
          Alcotest.test_case "check_in / look_up" `Quick test_name_server_check_in_look_up;
          Alcotest.test_case "missing and check_out" `Quick test_name_server_missing_and_checkout;
          Alcotest.test_case "re-registration replaces" `Quick
            test_name_server_reregistration_replaces;
          Alcotest.test_case "dead registrations pruned" `Quick test_name_server_dead_port_pruned;
        ] );
      ( "fs-map-file",
        [ Alcotest.test_case "direct read/write mapping" `Quick test_map_file_direct_rw ] );
      ( "mos-skeleton",
        [ Alcotest.test_case "on_other routing and stop" `Quick test_mos_stop_and_on_other ] );
      ( "task-ports",
        [
          Alcotest.test_case "thread port suspend/resume" `Quick test_thread_port_ops;
          Alcotest.test_case "info and remote allocation" `Quick
            test_task_port_info_and_remote_alloc;
          Alcotest.test_case "terminate via port, death notified" `Quick
            test_task_port_terminate_notifies;
          Alcotest.test_case "cross-host suspend/resume" `Quick test_cross_host_suspend;
        ] );
      ( "rpc",
        [ Alcotest.test_case "malformed reply is an error" `Quick test_malformed_reply_is_error ] );
    ]
