(* The pageout daemon, the default pager and the reserved pool:
   anonymous memory larger than physical memory must survive a round
   trip through the paging file (§6.2.2, §6.2.3). *)

open Mach
module Mos = Memory_object_server
module Rt = Pager_runtime
module Page_queues = Mach_vm.Page_queues
module Minimal_fs = Mach_pagers.Minimal_fs
module Fs_layout = Mach_fs.Fs_layout

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

let small = { Kernel.default_config with Kernel.phys_frames = 64 }

(* Page state agrees with the queue: Cleaning exactly on the laundry
   queue, Resident on the active and inactive queues. *)
let check_queues kctx =
  match Page_queues.check_invariants kctx.Kctx.queues with
  | Ok () -> ()
  | Error e -> Alcotest.failf "page queues: %s" e

let tag i = Printf.sprintf "page-%04d-contents" i

let test_anonymous_paging_roundtrip () =
  with_system ~config:small (fun sys task ->
      (* 3x physical memory of anonymous data. *)
      let npages = 192 in
      let addr = Syscalls.vm_allocate task ~size:(npages * page) ~anywhere:true () in
      for i = 0 to npages - 1 do
        match Syscalls.write_bytes task ~addr:(addr + (i * page)) (Bytes.of_string (tag i)) () with
        | Ok () -> ()
        | Error e -> Alcotest.failf "write %d: %a" i Access.pp_error e
      done;
      let stats = Kernel.stats sys.Kernel.kernel in
      Alcotest.(check bool) "pageouts happened" true (Counters.get stats Vm_types.s_pageouts > 0);
      (* Read everything back: early pages were paged out to the
         default pager and must return with correct contents. *)
      for i = 0 to npages - 1 do
        match Syscalls.read_bytes task ~addr:(addr + (i * page)) ~len:(String.length (tag i)) () with
        | Ok b -> check Alcotest.string (Printf.sprintf "page %d content" i) (tag i) (Bytes.to_string b)
        | Error e -> Alcotest.failf "read %d: %a" i Access.pp_error e
      done;
      let stats = Kernel.stats sys.Kernel.kernel in
      Alcotest.(check bool) "pageins from default pager" true (Counters.get stats Vm_types.s_pageins > 0);
      Alcotest.(check bool) "paging disk used" true (Disk.ops sys.Kernel.kernel.Ktypes.k_paging_disk > 0))

let test_repaged_data_modifiable () =
  with_system ~config:small (fun _sys task ->
      let npages = 150 in
      let addr = Syscalls.vm_allocate task ~size:(npages * page) ~anywhere:true () in
      for i = 0 to npages - 1 do
        ignore (Syscalls.write_bytes task ~addr:(addr + (i * page)) (Bytes.of_string (tag i)) ())
      done;
      (* Rewrite the early (paged-out) pages and check both rounds. *)
      for i = 0 to 20 do
        ignore (Syscalls.write_bytes task ~addr:(addr + (i * page)) (Bytes.of_string "v2") ())
      done;
      for i = 0 to 20 do
        match Syscalls.read_bytes task ~addr:(addr + (i * page)) ~len:2 () with
        | Ok b -> check Alcotest.string "v2 stuck" "v2" (Bytes.to_string b)
        | Error e -> Alcotest.failf "read: %a" Access.pp_error e
      done)

let test_reserved_pool_respected () =
  with_system ~config:small (fun sys task ->
      let kctx = sys.Kernel.kernel.Ktypes.k_kctx in
      let reserved = kctx.Kctx.reserved_frames in
      Alcotest.(check bool) "reserve exists" true (reserved > 0);
      (* Grind through memory; at no point may an unprivileged
         allocation leave fewer than zero... the daemon keeps free above
         the floor eventually, and free never hits 0 while we allocate
         because the reserve is off-limits to us. *)
      let npages = 100 in
      let addr = Syscalls.vm_allocate task ~size:(npages * page) ~anywhere:true () in
      let min_free = ref max_int in
      for i = 0 to npages - 1 do
        ignore (Syscalls.write_bytes task ~addr:(addr + (i * page)) (Bytes.of_string "x") ());
        min_free := min !min_free (Kernel.free_frames sys.Kernel.kernel)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "reserve never breached (min free %d, reserve %d)" !min_free reserved)
        true (!min_free >= 0))

let test_lru_prefers_cold_pages () =
  with_system ~config:small (fun sys task ->
      let kctx = sys.Kernel.kernel.Ktypes.k_kctx in
      let hot_pages = 8 in
      let addr = Syscalls.vm_allocate task ~size:(120 * page) ~anywhere:true () in
      (* Touch hot pages constantly while streaming through the rest. *)
      for i = 0 to 119 do
        ignore (Syscalls.write_bytes task ~addr:(addr + (i * page)) (Bytes.of_string (tag i)) ());
        for h = 0 to hot_pages - 1 do
          ignore (Syscalls.touch task ~addr:(addr + (h * page)) ~write:false ())
        done
      done;
      (* The hot pages should still be resident (no pagein needed). *)
      let before = Counters.get (Kernel.stats sys.Kernel.kernel) Vm_types.s_pageins in
      for h = 0 to hot_pages - 1 do
        ignore (Syscalls.touch task ~addr:(addr + (h * page)) ~write:false ())
      done;
      let after = Counters.get (Kernel.stats sys.Kernel.kernel) Vm_types.s_pageins in
      check Alcotest.int "hot set stayed resident" 0 (after - before);
      check_queues kctx)

let test_run_once_noop_when_memory_free () =
  with_system (fun sys _task ->
      (* Plenty of memory: nothing to reclaim. *)
      check Alcotest.int "no deficit, no work" 0 (Pageout.run_once sys.Kernel.kernel.Ktypes.k_kctx))

let test_default_pager_stats () =
  with_system ~config:small (fun sys task ->
      let npages = 150 in
      let addr = Syscalls.vm_allocate task ~size:(npages * page) ~anywhere:true () in
      for i = 0 to npages - 1 do
        ignore (Syscalls.write_bytes task ~addr:(addr + (i * page)) (Bytes.make 8 'z') ())
      done;
      (* The default pager's backing store now holds pages. *)
      let stats = Kernel.stats sys.Kernel.kernel in
      Alcotest.(check bool) "pageouts counted" true (Counters.get stats Vm_types.s_pageouts > 40);
      Alcotest.(check bool) "paging disk has writes" true
        (Counters.value (Disk.stats sys.Kernel.kernel.Ktypes.k_paging_disk) "writes" > 0))

let test_paging_blocks_recycled () =
  (* Repeatedly create, page out, and destroy address spaces: the
     paging disk must not leak blocks across object lifetimes. *)
  with_system ~config:small (fun sys _task ->
      let kernel = sys.Kernel.kernel in
      let dp = Option.get kernel.Ktypes.k_default_pager in
      let free_at_start = Default_pager.blocks_free dp in
      for round = 0 to 4 do
        let t = Task.create kernel ~name:(Printf.sprintf "churn-%d" round) () in
        let fin = Ivar.create () in
        ignore
          (Thread.spawn t ~name:(Printf.sprintf "churn-%d.main" round) (fun () ->
               let npages = 120 in
               let addr = Syscalls.vm_allocate t ~size:(npages * page) ~anywhere:true () in
               for i = 0 to npages - 1 do
                 ignore (Syscalls.write_bytes t ~addr:(addr + (i * page)) (Bytes.make 8 'x') ())
               done;
               Ivar.fill fin ()));
        Ivar.read fin;
        Task.terminate t;
        (* Let termination and releases settle. *)
        Engine.sleep 1_000_000.0
      done;
      (* Five rounds of ~56+ paged-out pages each would need hundreds
         of blocks if leaked; all must have come back. *)
      Alcotest.(check bool) "no pageouts would invalidate this test" true
        (Counters.get (Kernel.stats kernel) Vm_types.s_pageouts > 0);
      check Alcotest.int "all paging blocks recycled" free_at_start (Default_pager.blocks_free dp))

(* Serve [policy] from a new manager task holding one registered memory
   object. *)
let serve_object ?service_threads kernel ~name policy =
  let rt, srv = Mos.serve ?service_threads (Task.create kernel ~name ()) policy in
  let memory_object = Mos.create_memory_object srv () in
  ignore (Rt.register rt ~memory_object ());
  (rt, memory_object)

(* A manager serving 'm' pages whose [p_write] we control; returns the
   runtime, the memory object and the request port (filled at
   pager_init). *)
let make_manager ?service_threads kernel ~name ~p_write =
  let req_port = Ivar.create () in
  let policy =
    {
      Rt.default_policy with
      Rt.p_init = (fun _ _ ~request -> Ivar.fill req_port request);
      Rt.p_read = (fun _ _ ~request:_ ~page:_ ~npages:_ ~desired_access:_ -> Rt.Data (Bytes.make page 'm'));
      Rt.p_write;
    }
  in
  let rt, memory_object = serve_object ?service_threads kernel ~name policy in
  (rt, memory_object, req_port)

let requests rt = (Rt.stats rt).Rt.Stats.s_requests

let test_refault_during_clean () =
  (* Refault on a page whose run's data_write is still outstanding: the
     page stays resident busy-cleaning on the laundry queue, so the
     faulter waits for the release instead of re-requesting the data
     from the manager (the old pipeline detached the page and paid a
     second data_request). *)
  with_system (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let rt, memory_object, req_port =
        make_manager kernel ~name:"slow-mgr" ~p_write:(fun _ _ ~offset:_ ~data:_ ->
            (* Hold the data long enough for refaults to land; the
               runtime releases it on return. *)
            Engine.sleep 5_000.0)
      in
      let npages = 8 in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(npages * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      for i = 0 to npages - 1 do
        ignore (Syscalls.touch task ~addr:(addr + (i * page)) ~write:true ())
      done;
      let req = Ivar.read req_port in
      let requests_before = requests rt in
      let hits_before = Counters.get (Kernel.stats kernel) Vm_types.s_clean_hits in
      Rt.clean_request rt ~request:req ~offset:0 ~length:(npages * page);
      (* Let the kernel launder the run, then refault mid-clean. *)
      Engine.sleep 500.0;
      let kctx = kernel.Ktypes.k_kctx in
      Alcotest.(check bool) "pages busy-cleaning on the laundry queue" true
        (Page_queues.laundry_count kctx.Kctx.queues > 0);
      check_queues kctx;
      for i = 0 to npages - 1 do
        match Syscalls.touch task ~addr:(addr + (i * page)) ~write:true () with
        | Ok () -> ()
        | Error e -> Alcotest.failf "refault %d: %a" i Access.pp_error e
      done;
      let stats = Kernel.stats kernel in
      Alcotest.(check bool) "refaults absorbed by the laundry queue" true
        (Counters.get stats Vm_types.s_clean_hits > hits_before);
      check Alcotest.int "no second data_request to the manager" requests_before (requests rt);
      check Alcotest.int "laundry drained" 0 (Page_queues.laundry_count kctx.Kctx.queues);
      check_queues kctx)

let test_rescue_still_double_pages () =
  (* A manager that never releases its data_writes: the rescue timer
     must fire, push the in-transit data to the default pager (§6.2.2
     double paging) and free the frames; a later fault re-requests the
     data from the manager. *)
  with_system (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let npages = 8 in
      (* Never returning from [p_write] withholds the release; each held
         run parks one service thread, so keep one spare for the
         post-rescue faults. *)
      let rt, memory_object, req_port =
        make_manager ~service_threads:(npages + 1) kernel ~name:"hoarder-mgr"
          ~p_write:(fun _ _ ~offset:_ ~data:_ -> Ivar.read (Ivar.create ()))
      in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(npages * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      for i = 0 to npages - 1 do
        ignore (Syscalls.touch task ~addr:(addr + (i * page)) ~write:true ())
      done;
      let req = Ivar.read req_port in
      let rescued_before = Counters.get (Kernel.stats kernel) Vm_types.s_pageout_to_default in
      Rt.clean_request rt ~request:req ~offset:0 ~length:(npages * page);
      let kctx = kernel.Ktypes.k_kctx in
      Engine.sleep 500.0;
      Alcotest.(check bool) "the held run is on the laundry queue" true
        (Page_queues.laundry_count kctx.Kctx.queues > 0);
      check_queues kctx;
      (* Sleep past the rescue timeout. *)
      Engine.sleep (Kctx.data_write_release_timeout_us +. 100_000.0);
      let stats = Kernel.stats kernel in
      Alcotest.(check bool) "rescue double-paged the run to the default pager" true
        (Counters.get stats Vm_types.s_pageout_to_default > rescued_before);
      check Alcotest.int "laundry drained by the rescue" 0
        (Page_queues.laundry_count kctx.Kctx.queues);
      (* The pages are gone; faulting again must re-request from the
         manager and still complete. *)
      let requests_before = requests rt in
      for i = 0 to npages - 1 do
        match Syscalls.touch task ~addr:(addr + (i * page)) ~write:false () with
        | Ok () -> ()
        | Error e -> Alcotest.failf "post-rescue fault %d: %a" i Access.pp_error e
      done;
      Alcotest.(check bool) "post-rescue faults re-request from the manager" true
        (requests rt > requests_before);
      check_queues kctx)

let test_flooding_manager_contained () =
  (* §6: a manager that answers any request with a flood of unsolicited
     pages. The kernel accepts them only while unreserved frames exist,
     so the reserve survives and a fresh allocation still works. *)
  let config = { Kernel.default_config with Kernel.phys_frames = 128 } in
  with_system ~config (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let offered = 4096 in
      let policy =
        {
          Rt.default_policy with
          Rt.p_reshape = (fun _ _ ~first ~npages:_ -> (first, 1));
          Rt.p_read =
            (fun rt _ ~request ~page:_ ~npages:_ ~desired_access:_ ->
              Rt.data_provided rt ~request ~offset:0 ~data:(Bytes.make (offered * page) 'F')
                ~lock_value:Prot.none;
              Rt.Defer);
        }
      in
      let rt, memory_object = serve_object kernel ~name:"flood-mgr" policy in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(offered * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      (match Syscalls.read_bytes task ~addr ~len:1 ~policy:(Fault.Abort_after 10_000_000.0) () with
      | Ok b -> check Alcotest.string "demanded page served by the flood" "F" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read: %a" Access.pp_error e);
      Engine.sleep 100_000.0;
      check Alcotest.int "the whole flood was offered" offered
        (Rt.stats rt).Rt.Stats.s_pages_served;
      let free = Kernel.free_frames kernel in
      let reserved = kernel.Ktypes.k_kctx.Kctx.reserved_frames in
      Alcotest.(check bool)
        (Printf.sprintf "reserve intact (free %d, reserve %d)" free reserved)
        true (free >= reserved);
      let fresh = Syscalls.vm_allocate task ~size:page ~anywhere:true () in
      match Syscalls.write_bytes task ~addr:fresh (Bytes.of_string "after-flood") () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "allocation after the flood: %a" Access.pp_error e)

let test_file_writeback_not_double_paged () =
  (* A mapped file server file dirtied past physical memory: the kernel
     launders it in 8-page runs, several in flight behind one server
     thread and one disk arm. Each run reaches the disk with one seek,
     so every release beats the rescue timer and nothing is written a
     second time by the default pager. *)
  let config = { Kernel.default_config with Kernel.phys_frames = 512 } in
  with_system ~config (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let disk = Disk.create sys.Kernel.engine ~name:"fsdisk" ~blocks:2048 ~block_size:page () in
      let fsrv = Minimal_fs.start kernel ~disk ~format:true () in
      let npages = 768 in
      Fs_layout.write_file (Minimal_fs.fs fsrv) "image" (Bytes.make (npages * page) '\000');
      let addr, _ =
        match Minimal_fs.Client.map_file task ~server:(Minimal_fs.service_port fsrv) "image" with
        | Ok r -> r
        | Error e -> Alcotest.failf "map_file: %a" Minimal_fs.Client.pp_error e
      in
      let stats = Kernel.stats kernel in
      let laundered = Counters.get stats Vm_types.s_laundered in
      let rescued = Counters.get stats Vm_types.s_pageout_to_default in
      for i = 0 to npages - 1 do
        match Syscalls.write_bytes task ~addr:(addr + (i * page)) (Bytes.of_string (tag i)) () with
        | Ok () -> ()
        | Error e -> Alcotest.failf "dirty %d: %a" i Access.pp_error e
      done;
      (* Let the last runs' releases come back. *)
      Engine.sleep 2_000_000.0;
      let stats = Kernel.stats kernel in
      Alcotest.(check bool) "file pages were laundered" true
        (Counters.get stats Vm_types.s_laundered > laundered);
      check Alcotest.int "no run double-paged to the default pager" 0
        (Counters.get stats Vm_types.s_pageout_to_default - rescued);
      for i = 0 to npages - 1 do
        match Syscalls.read_bytes task ~addr:(addr + (i * page)) ~len:(String.length (tag i)) () with
        | Ok b -> check Alcotest.string (Printf.sprintf "page %d" i) (tag i) (Bytes.to_string b)
        | Error e -> Alcotest.failf "read %d: %a" i Access.pp_error e
      done)

let () =
  Alcotest.run "pageout"
    [
      ( "paging",
        [
          Alcotest.test_case "anonymous paging roundtrip" `Quick test_anonymous_paging_roundtrip;
          Alcotest.test_case "repaged data modifiable" `Quick test_repaged_data_modifiable;
          Alcotest.test_case "reserved pool respected" `Quick test_reserved_pool_respected;
          Alcotest.test_case "LRU keeps hot pages" `Quick test_lru_prefers_cold_pages;
          Alcotest.test_case "run_once no-op when free" `Quick test_run_once_noop_when_memory_free;
          Alcotest.test_case "default pager stats" `Quick test_default_pager_stats;
          Alcotest.test_case "paging blocks recycled across object lifetimes" `Quick
            test_paging_blocks_recycled;
          Alcotest.test_case "flooding manager leaves the reserve intact" `Quick
            test_flooding_manager_contained;
        ] );
      ( "writeback",
        [
          Alcotest.test_case "refault during clean is absorbed" `Quick test_refault_during_clean;
          Alcotest.test_case "unreleased data_write still double-pages" `Quick
            test_rescue_still_double_pages;
          Alcotest.test_case "file server writeback is not double-paged" `Quick
            test_file_writeback_not_double_paged;
        ] );
    ]
