(* Tasks, threads, CPU accounting, and the syscall façade. *)

open Mach

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

let test_task_create_terminate () =
  with_system (fun sys _task ->
      let before = List.length sys.Kernel.kernel.Ktypes.k_tasks in
      let t = Task.create sys.Kernel.kernel ~name:"ephemeral" () in
      check Alcotest.int "registered" (before + 1) (List.length sys.Kernel.kernel.Ktypes.k_tasks);
      Alcotest.(check bool) "alive" true (Task.alive t);
      let n = Syscalls.port_allocate t () in
      let p = Port_space.lookup_exn (Task.space t) n in
      Task.terminate t;
      Alcotest.(check bool) "dead" false (Task.alive t);
      Alcotest.(check bool) "ports destroyed" false (Mach_ipc.Port.alive p);
      check Alcotest.int "unregistered" before (List.length sys.Kernel.kernel.Ktypes.k_tasks))

let test_task_termination_notifies_senders () =
  with_system (fun sys task ->
      let t = Task.create sys.Kernel.kernel ~name:"server" () in
      let n = Syscalls.port_allocate t () in
      let p = Port_space.lookup_exn (Task.space t) n in
      let my_name = Syscalls.port_insert task p Message.Send_right in
      Task.terminate t;
      match Port_space.next_notification (Task.space task) ~timeout:1000.0 () with
      | Some (Port_space.Port_deleted dead) -> check Alcotest.int "notified of death" my_name dead
      | None -> Alcotest.fail "expected notification")

let test_thread_suspend_resume () =
  with_system (fun sys _task ->
      let t = Task.create sys.Kernel.kernel ~name:"worker" () in
      let progress = ref 0 in
      let th = ref None in
      let body () =
        for _ = 1 to 10 do
          Thread.checkpoint (Option.get !th);
          incr progress;
          Engine.sleep 10.0
        done
      in
      th := Some (Thread.spawn t ~name:"worker.loop" body);
      let thread = Option.get !th in
      Engine.sleep 35.0;
      Thread.suspend thread;
      let frozen_at = !progress in
      Engine.sleep 100.0;
      check Alcotest.int "no progress while suspended" frozen_at !progress;
      Thread.resume thread;
      Engine.sleep 200.0;
      check Alcotest.int "completed after resume" 10 !progress;
      Alcotest.(check bool) "done" true (Thread.is_done thread))

let test_cpu_contention () =
  (* One CPU: two 100us bursts take 200us; four CPUs: 100us. *)
  let burst_time cpus =
    let params = Machine.custom ~cpus Machine.Uma in
    let config = { Kernel.default_config with Kernel.params } in
    with_system ~config (fun sys _task ->
        let t0 = Engine.now sys.Kernel.engine in
        let d1 = Ivar.create () and d2 = Ivar.create () in
        let t = Task.create sys.Kernel.kernel ~name:"burner" () in
        ignore (Thread.spawn t ~name:"b1" (fun () -> Cpu.compute sys.Kernel.kernel 100.0; Ivar.fill d1 ()));
        ignore (Thread.spawn t ~name:"b2" (fun () -> Cpu.compute sys.Kernel.kernel 100.0; Ivar.fill d2 ()));
        Ivar.read d1;
        Ivar.read d2;
        Engine.now sys.Kernel.engine -. t0)
  in
  Alcotest.(check bool) "1 cpu serialises" true (burst_time 1 >= 200.0);
  Alcotest.(check bool) "4 cpus parallelise" true (burst_time 4 < 150.0)

let test_vm_syscall_integration () =
  with_system (fun _sys task ->
      let addr = Syscalls.vm_allocate task ~size:(2 * page) ~anywhere:true () in
      (match Syscalls.vm_write task ~addr (Bytes.of_string "syscall-data") () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "vm_write: %a" Access.pp_error e);
      (match Syscalls.vm_read task ~addr ~size:12 () with
      | Ok b -> check Alcotest.string "vm_read" "syscall-data" (Bytes.to_string b)
      | Error e -> Alcotest.failf "vm_read: %a" Access.pp_error e);
      (match Syscalls.vm_copy task ~src_addr:addr ~size:12 ~dst_addr:(addr + page) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "vm_copy: %a" Access.pp_error e);
      match Syscalls.vm_read task ~addr:(addr + page) ~size:12 () with
      | Ok b -> check Alcotest.string "copied" "syscall-data" (Bytes.to_string b)
      | Error e -> Alcotest.failf "vm_read 2: %a" Access.pp_error e)

let test_vm_read_other_task () =
  with_system (fun sys task ->
      let other = Task.create sys.Kernel.kernel ~name:"other" () in
      let addr = Syscalls.vm_allocate other ~size:page ~anywhere:true () in
      (match Syscalls.vm_write task ~target:other ~addr (Bytes.of_string "cross-task") () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cross write: %a" Access.pp_error e);
      match Syscalls.vm_read task ~target:other ~addr ~size:10 () with
      | Ok b -> check Alcotest.string "cross read" "cross-task" (Bytes.to_string b)
      | Error e -> Alcotest.failf "cross read: %a" Access.pp_error e)

let test_vm_statistics_reporting () =
  with_system (fun _sys task ->
      let addr = Syscalls.vm_allocate task ~size:(4 * page) ~anywhere:true () in
      ignore (Syscalls.write_bytes task ~addr (Bytes.make (4 * page) 'x') ());
      let vs = Syscalls.vm_statistics task in
      check Alcotest.int "page size" page vs.Syscalls.vs_page_size;
      Alcotest.(check bool) "free counted" true (vs.Syscalls.vs_free_count > 0);
      Alcotest.(check bool) "active pages" true (vs.Syscalls.vs_active_count >= 4);
      Alcotest.(check bool) "faults recorded" true (Counters.get vs.Syscalls.vs_stats Vm_types.s_faults >= 4)

)

let test_ool_send_and_map_ool () =
  with_system (fun sys task ->
      let recv = Task.create sys.Kernel.kernel ~name:"receiver" () in
      let addr = Syscalls.vm_allocate task ~size:(2 * page) ~anywhere:true () in
      ignore (Syscalls.write_bytes task ~addr (Bytes.of_string "ool-payload") ());
      let svc = Syscalls.port_allocate recv () in
      let svc_port = Port_space.lookup_exn (Task.space recv) svc in
      let finished = Ivar.create () in
      ignore
        (Thread.spawn recv ~name:"receiver.main" (fun () ->
             match Syscalls.msg_receive recv ~from:(`Port svc) () with
             | Ok msg -> (
               match Syscalls.map_ool recv msg with
               | [ (raddr, rsize) ] ->
                 check Alcotest.int "size" (2 * page) rsize;
                 (match Syscalls.read_bytes recv ~addr:raddr ~len:11 () with
                 | Ok b -> Ivar.fill finished (Bytes.to_string b)
                 | Error e -> Alcotest.failf "receiver read: %a" Access.pp_error e)
               | _ -> Alcotest.fail "expected one region")
             | Error _ -> Alcotest.fail "receive failed"));
      (match
         Syscalls.msg_send task
           (Message.make ~dest:svc_port [ Syscalls.ool_region task ~addr ~size:(2 * page) ])
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "send failed");
      check Alcotest.string "payload mapped" "ool-payload" (Ivar.read finished);
      (* Receiver's copy is COW-isolated from the sender. *)
      ignore (Syscalls.write_bytes task ~addr (Bytes.of_string "MUTATED") ());
      ())

let test_fork_inherits_port_space_not () =
  (* Port spaces are per-task and NOT inherited (only memory is). *)
  with_system (fun sys task ->
      let n = Syscalls.port_allocate task () in
      let child = Task.create sys.Kernel.kernel ~parent:task ~name:"child" () in
      Alcotest.(check bool) "child space empty of parent's name" true
        (Port_space.lookup (Task.space child) n = None))

(* Nothing outlives its owner: a thread's port dies with the thread, a
   task's death kills its threads' ports, and the task server forgets
   every dead target. What a kernel holds at quiescence must not depend
   on how many tasks and threads have come and gone. *)
let residue kernel =
  let snap = Metrics.snapshot (Kernel.metrics kernel) in
  ( List.map (Metrics.get snap) [ "ipc.ports_live"; "task_server.targets"; "sched.affinity" ],
    Port_space.pending_notifications kernel.Ktypes.k_space )

let residue_t = Alcotest.(pair (list (float 0.0)) int)

(* Fork a child that writes a page from its own thread and exits; a
   short-lived thread comes and goes in the parent meanwhile; then the
   child task is terminated. *)
let fork_cycle parent ~addr c =
  let child = Task.create (Task.kernel parent) ~parent ~name:(Printf.sprintf "child%d" c) () in
  let wrote = Ivar.create () in
  ignore
    (Thread.spawn child (fun () ->
         ignore (Syscalls.write_bytes child ~addr (Bytes.of_string "child") ());
         Ivar.fill wrote ()));
  ignore (Thread.spawn parent (fun () -> Cpu.compute (Task.kernel parent) 50.0));
  Ivar.read wrote;
  Task.terminate child

let test_no_residue_after_cycles () =
  let sys = Kernel.create_system () in
  let kernel = sys.Kernel.kernel in
  let in_fiber f =
    Engine.spawn sys.Kernel.engine ~name:"cycles" f;
    Engine.run sys.Kernel.engine
  in
  let parent = ref None in
  in_fiber (fun () ->
      let task = Task.create kernel ~name:"parent" () in
      let addr = Syscalls.vm_allocate task ~size:(4 * page) ~anywhere:true () in
      ignore (Syscalls.write_bytes task ~addr (Bytes.make (4 * page) 'p') ());
      parent := Some (task, addr));
  let task, addr = Option.get !parent in
  let run_cycles ~first n =
    in_fiber (fun () ->
        for c = first to first + n - 1 do
          fork_cycle task ~addr c
        done);
    residue kernel
  in
  let after_one = run_cycles ~first:0 1 in
  let after_fifty = run_cycles ~first:1 50 in
  check residue_t "ports, targets, affinity, notices after 1 and 51 cycles" after_one after_fifty;
  check Alcotest.int "the task server's space queues no death notices" 0 (snd after_fifty)

let test_terminate_kills_running_threads () =
  with_system (fun sys _task ->
      let kernel = sys.Kernel.kernel in
      let before = residue kernel in
      let t = Task.create kernel ~name:"busy" () in
      let release = Ivar.create () in
      let th = Thread.spawn t (fun () -> Ivar.read release) in
      let th_port = Task_server.thread_port th in
      Task.terminate t;
      Alcotest.(check bool) "running thread's port died with its task" false
        (Port.alive th_port);
      check residue_t "the server forgot the task and its thread" before (residue kernel);
      (* The thread returns later; its port is already gone. *)
      Ivar.fill release ();
      Engine.sleep 1.0;
      Alcotest.(check bool) "thread finished" true (Thread.is_done th);
      check residue_t "nothing left behind" before (residue kernel))

let test_crash_forgets_targets () =
  let cluster = Kernel.create_cluster ~hosts:2 () in
  let remote = cluster.Kernel.c_kernels.(1) in
  let ports = ref [] in
  Engine.spawn cluster.Kernel.c_engine ~name:"crasher" (fun () ->
      let t = Task.create remote ~name:"doomed" () in
      let th = Thread.spawn t (fun () -> Engine.sleep 1e9) in
      ports := [ Task_server.task_port t; Task_server.thread_port th ];
      ignore (Context.crash_host cluster.Kernel.c_ctx ~host:1));
  Engine.run ~until:1000.0 cluster.Kernel.c_engine;
  Alcotest.(check bool) "task and thread ports died" true
    (List.for_all (fun p -> not (Port.alive p)) !ports);
  let snap = Metrics.snapshot (Kernel.metrics remote) in
  check (Alcotest.float 0.0) "the crashed host's task server forgot every target" 0.0
    (Metrics.get snap "task_server.targets");
  check Alcotest.(list int) "and freed every name" [] (Port_space.enabled remote.Ktypes.k_space);
  check Alcotest.int "with no death notices queued" 0
    (Port_space.pending_notifications remote.Ktypes.k_space)

let () =
  Alcotest.run "kernel"
    [
      ( "tasks-threads",
        [
          Alcotest.test_case "create/terminate" `Quick test_task_create_terminate;
          Alcotest.test_case "termination notifies senders" `Quick
            test_task_termination_notifies_senders;
          Alcotest.test_case "thread suspend/resume" `Quick test_thread_suspend_resume;
          Alcotest.test_case "cpu contention" `Quick test_cpu_contention;
          Alcotest.test_case "fork does not share port space" `Quick
            test_fork_inherits_port_space_not;
          Alcotest.test_case "no residue after fork/thread/exit cycles" `Quick
            test_no_residue_after_cycles;
          Alcotest.test_case "terminate kills running threads' ports" `Quick
            test_terminate_kills_running_threads;
          Alcotest.test_case "a crash makes the task server forget" `Quick
            test_crash_forgets_targets;
        ] );
      ( "syscalls",
        [
          Alcotest.test_case "vm read/write/copy" `Quick test_vm_syscall_integration;
          Alcotest.test_case "cross-task vm_read/vm_write" `Quick test_vm_read_other_task;
          Alcotest.test_case "vm_statistics" `Quick test_vm_statistics_reporting;
          Alcotest.test_case "ool region transfer" `Quick test_ool_send_and_map_ool;
        ] );
    ]
