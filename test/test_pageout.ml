(* The pageout daemon, the default pager and the reserved pool:
   anonymous memory larger than physical memory must survive a round
   trip through the paging file (§6.2.2, §6.2.3). *)

open Mach
module Mos = Memory_object_server
module Rt = Pager_runtime
module Page_queues = Mach_vm.Page_queues
module Vm_page = Mach_vm.Vm_page
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

(* --- run shapes -------------------------------------------------------------
   Pageout, a manager's clean request and object termination each ship
   runs of adjacent dirty pages. A manager that records every
   data_write as (first page, pages) shows the runs' shapes. *)

let recording_manager kernel =
  let writes = ref [] in
  let rt, memory_object, req_port =
    make_manager kernel ~name:"recording-mgr" ~p_write:(fun _ _ ~offset ~data ->
        writes := (offset / page, Bytes.length data / page) :: !writes)
  in
  (rt, memory_object, req_port, fun () -> List.rev !writes)

(* Map [npages] of the manager's object and touch each one, writing all
   but those in [clean]; returns the address and the kernel's object. *)
let map_touched task kctx memory_object ~npages ~clean =
  let addr =
    Syscalls.vm_allocate_with_pager task ~size:(npages * page) ~anywhere:true ~memory_object
      ~offset:0 ()
  in
  for i = 0 to npages - 1 do
    match Syscalls.touch task ~addr:(addr + (i * page)) ~write:(not (List.mem i clean)) () with
    | Ok () -> ()
    | Error e -> Alcotest.failf "touch %d: %a" i Access.pp_error e
  done;
  (addr, Option.get (Vm_object.find_by_port kctx memory_object))

let page_at obj i = Option.get (Vm_page.lookup obj ~offset:(i * page))
let runs = Alcotest.(list (pair int int))

let test_pageout_run_shape () =
  (* Sixteen dirty, idle pages; page 2 alone is inactive, so the launder
     pass seeds its run there. The run reaches back to page 0 and
     forward to the cluster window's end. *)
  with_system (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let kctx = kernel.Ktypes.k_kctx in
      let _rt, memory_object, _req, writes = recording_manager kernel in
      let _, obj = map_touched task kctx memory_object ~npages:16 ~clean:[] in
      for i = 0 to 15 do
        Phys_mem.set_referenced kctx.Kctx.mem (page_at obj i).Vm_types.frame false
      done;
      Page_queues.deactivate kctx.Kctx.queues (page_at obj 2);
      let stolen = ref [] in
      while Phys_mem.free_frames kctx.Kctx.mem >= Kctx.free_target kctx do
        stolen := Option.get (Phys_mem.alloc kctx.Kctx.mem) :: !stolen
      done;
      ignore (Pageout.run_once kctx);
      List.iter (Kctx.free_frame kctx) !stolen;
      Engine.sleep 100_000.0;
      check runs "one run, pages 0-7" [ (0, Kctx.cluster_pages) ] (writes ()))

let test_clean_request_run_shape () =
  (* Pages 0-11 dirty but page 3; a clean request over pages 0-9 ships
     0-2 and 4-9: a run stops at a clean page and at the range's end. *)
  with_system (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let rt, memory_object, req_port, writes = recording_manager kernel in
      ignore (map_touched task kernel.Ktypes.k_kctx memory_object ~npages:12 ~clean:[ 3 ]);
      Rt.clean_request rt ~request:(Ivar.read req_port) ~offset:0 ~length:(10 * page);
      Engine.sleep 100_000.0;
      check runs "runs 0-2 and 4-9" [ (0, 3); (4, 6) ] (writes ()))

let test_terminate_run_shape () =
  (* Unmapping the object's only mapping terminates it: its ten dirty
     pages go back as a cluster-window run and the rest. *)
  with_system (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let _rt, memory_object, _req, writes = recording_manager kernel in
      let addr, obj = map_touched task kernel.Ktypes.k_kctx memory_object ~npages:10 ~clean:[] in
      Syscalls.vm_deallocate task ~addr ~size:(10 * page);
      Alcotest.(check bool) "terminated" false obj.Vm_types.obj_alive;
      Engine.sleep 100_000.0;
      check runs "runs of 8 and 2" [ (0, 8); (8, 2) ] (writes ()))

let test_clean_request_waits_on_held_neighbour () =
  (* Page 1's faulter holds a fresh translation: the clean ships page 0
     alone and waits on page 1 until the hold drains. *)
  with_system (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let rt, memory_object, req_port, writes = recording_manager kernel in
      let _, obj = map_touched task kernel.Ktypes.k_kctx memory_object ~npages:4 ~clean:[] in
      let held = page_at obj 1 in
      Vm_page.pin held;
      Rt.clean_request rt ~request:(Ivar.read req_port) ~offset:0 ~length:(4 * page);
      Engine.sleep 100_000.0;
      check runs "page 0 alone" [ (0, 1) ] (writes ());
      Alcotest.(check bool) "held page not laundered" false
        (held.Vm_types.p_state = Vm_types.Cleaning);
      Vm_page.unpin held;
      Engine.sleep 100_000.0;
      check runs "pages 1-3 once the hold drains" [ (0, 1); (1, 3) ] (writes ()))

(* Reclaim passes over an inactive queue built by hand, in a bare
   kernel context with no daemon running. Page [i] caches offset
   [i * page] of one external object that no manager serves, and
   the queue holds the pages in list order, oldest first. Free memory
   is cut to [deficit] frames below the free target, so [run_once]
   reclaims exactly that many. With [laundry_full], more pages of the
   object fill the laundry to pageout's [laundry_limit] first, as if
   already shipped. Returns the frames freed over [passes] calls of
   [run_once], the kernel context, and the pages. *)
type inactive_page = { dirty : bool; referenced : bool; held : bool }

let clean = { dirty = false; referenced = false; held = false }
let dirty = { clean with dirty = true }

let reclaim ?(passes = 1) ?(laundry_full = false) specs ~deficit =
  let eng = Engine.create () in
  let ctx = Context.create eng (Net.create eng ()) in
  let mem = Phys_mem.create ~frames:128 ~page_size:page in
  let kctx =
    Kctx.create eng ctx ~host:0 ~params:Machine.uniprocessor ~mem ~reserved_frames:16 ()
  in
  let n = List.length specs in
  let in_laundry =
    if laundry_full then max (2 * Kctx.cluster_pages) (Kctx.free_target kctx) else 0
  in
  let obj =
    Vm_object.create_external kctx ~memory_object:(Port.create ctx ~home:0 ~drop:Message.discard ())
      ~size:((n + in_laundry) * page)
  in
  let insert i =
    let frame = Option.get (Phys_mem.alloc mem) in
    Vm_page.insert kctx obj ~offset:(i * page) ~frame ~state:Vm_types.Resident
  in
  let pages =
    List.mapi
      (fun i s ->
        let p = insert i in
        p.Vm_types.dirty <- s.dirty;
        if s.held then Vm_page.pin p;
        Phys_mem.set_referenced mem p.Vm_types.frame s.referenced;
        Page_queues.deactivate kctx.Kctx.queues p;
        p)
      specs
  in
  for i = n to n + in_laundry - 1 do
    Vm_page.launder kctx (insert i)
  done;
  while Phys_mem.free_frames mem > Kctx.free_target kctx - deficit do
    ignore (Phys_mem.alloc mem)
  done;
  let freed = ref None in
  Engine.spawn eng (fun () ->
      let total = ref 0 in
      for _ = 1 to passes do
        total := !total + Pageout.run_once kctx
      done;
      freed := Some !total);
  (* Stop before the unanswered writes' rescue timers fire. *)
  Engine.run ~until:(Kctx.data_write_release_timeout_us /. 2.0) eng;
  check_queues kctx;
  match !freed with
  | Some freed -> (freed, kctx, pages)
  | None -> Alcotest.fail "the passes did not finish"

(* One pass; returns the frames freed, the data_writes sent, and the
   pages. *)
let reclaim_pass specs ~deficit =
  let freed, kctx, pages = reclaim specs ~deficit in
  (freed, Counters.get kctx.Kctx.stats Vm_types.s_data_writes, pages)

let gone (p : Vm_types.page) =
  match Vm_page.lookup p.Vm_types.p_obj ~offset:p.Vm_types.p_offset with
  | Some q -> q != p
  | None -> true

let cleaning (p : Vm_types.page) = p.Vm_types.p_state = Vm_types.Cleaning

let test_held_page_survives () =
  (* A faulter holds the page across its map-op charge: freeing it
     there makes the faulter refault, and under pressure forever. *)
  let freed, writes, pages = reclaim_pass [ { clean with held = true } ] ~deficit:1 in
  check Alcotest.int "nothing freed" 0 freed;
  check Alcotest.int "nothing laundered" 0 writes;
  Alcotest.(check bool) "held page still resident" false (gone (List.hd pages))

let test_held_neighbour_ends_run () =
  (* The seed's dirty neighbour is held: the run is the seed alone. *)
  let _, writes, pages = reclaim_pass [ dirty; { dirty with held = true } ] ~deficit:1 in
  check Alcotest.int "one data_write" 1 writes;
  check Alcotest.(list bool) "only the seed is cleaning" [ true; false ] (List.map cleaning pages)

let test_clean_pages_go_first () =
  (* Older dirty pages, newer clean ones, and a deficit the clean pages
     cover: the pass drops clean pages and writes nothing. *)
  let dirty_pages = List.init 8 (fun _ -> dirty) and clean_pages = List.init 8 (fun _ -> clean) in
  let freed, writes, pages = reclaim_pass (dirty_pages @ clean_pages) ~deficit:4 in
  check Alcotest.int "deficit freed" 4 freed;
  check Alcotest.int "no data_write" 0 writes;
  check Alcotest.(list bool) "the four oldest clean pages freed"
    (List.init 16 (fun i -> i >= 8 && i < 12))
    (List.map gone pages)

let test_deficit_past_clean_launders () =
  (* Dirty 0-3, clean 4-5, dirty 6-9, and a deficit of 6: both clean
     pages go, then the oldest dirty run is laundered as one write. *)
  let specs = List.init 10 (fun i -> if i = 4 || i = 5 then clean else dirty) in
  let freed, writes, pages = reclaim_pass specs ~deficit:6 in
  check Alcotest.int "clean pages freed" 2 freed;
  check Alcotest.int "one data_write" 1 writes;
  check Alcotest.(list bool) "the oldest run is cleaning"
    (List.init 10 (fun i -> i < 4))
    (List.map cleaning pages)

let test_dirty_page_set_aside_once () =
  (* The laundry is full, so no pass can launder: each ends at the
     oldest dirty page. A pass that rescanned the dirty pages would look
     at all of them every time. *)
  let n = 16 and k = 10 in
  let _, kctx, pages =
    reclaim ~passes:k ~laundry_full:true (List.init n (fun _ -> dirty)) ~deficit:4
  in
  let stats = kctx.Kctx.stats in
  let scanned = Counters.get stats Vm_types.s_pageout_scanned in
  check Alcotest.int "passes" k (Counters.get stats Vm_types.s_pageout_passes);
  Alcotest.(check bool)
    (Printf.sprintf "scanned %d <= passes + pages" scanned) true (scanned <= k + n);
  check Alcotest.int "no data_write" 0 (Counters.get stats Vm_types.s_data_writes);
  Alcotest.(check bool) "every page waits on the dirty queue" true
    (List.for_all (fun p -> p.Vm_types.q_state = Vm_types.Q_dirty) pages)

let test_launder_oldest_first () =
  (* 24 adjacent dirty pages and a deficit of one: each pass launders
     one cluster-window run, and the second pass takes up where the
     first stopped, not at the newest page. *)
  let _, kctx, pages = reclaim ~passes:2 (List.init 24 (fun _ -> dirty)) ~deficit:1 in
  check Alcotest.int "one data_write per pass" 2
    (Counters.get kctx.Kctx.stats Vm_types.s_data_writes);
  check Alcotest.(list bool) "the two oldest runs are cleaning"
    (List.init 24 (fun i -> i < 2 * Kctx.cluster_pages))
    (List.map cleaning pages)

(* Every resident page was just referenced, so the daemon's first pass
   only ages them and frees nothing. The allocator is already asleep at
   the reserve and nothing else is left to run: the daemon must pass
   again rather than sleep, or the allocator waits forever. *)
let test_aging_pass_wakes_allocator () =
  with_system ~config:small (fun sys _task ->
      let kctx = sys.Kernel.kernel.Ktypes.k_kctx in
      let obj = Vm_object.create_anonymous kctx ~size:(64 * page) in
      let rec fill i =
        match Kctx.try_alloc_frame kctx ~privileged:false with
        | None -> ()
        | Some frame ->
          let p = Vm_page.insert kctx obj ~offset:(i * page) ~frame ~state:Vm_types.Resident in
          Phys_mem.set_referenced kctx.Kctx.mem frame true;
          Page_queues.activate kctx.Kctx.queues p;
          fill (i + 1)
      in
      fill 0;
      Kctx.free_frame kctx (Kctx.alloc_frame kctx ~privileged:false);
      Alcotest.(check bool) "aged pages freed" true
        (Counters.get kctx.Kctx.stats Vm_types.s_pages_freed > 0))

(* An anonymous object's first pageout sends pager_create, and the send
   can sleep: a page freed meanwhile must not be laundered. *)
let test_page_freed_during_bind () =
  with_system ~config:small (fun sys _task ->
      let kctx = sys.Kernel.kernel.Ktypes.k_kctx in
      let obj = Vm_object.create_anonymous kctx ~size:page in
      let frame = Option.get (Kctx.try_alloc_frame kctx ~privileged:false) in
      let p = Vm_page.insert kctx obj ~offset:0 ~frame ~state:Vm_types.Resident in
      p.Vm_types.dirty <- true;
      Page_queues.deactivate kctx.Kctx.queues p;
      while Phys_mem.free_frames kctx.Kctx.mem >= Kctx.free_target kctx do
        ignore (Phys_mem.alloc kctx.Kctx.mem)
      done;
      let engine = sys.Kernel.engine in
      Engine.schedule engine ~at:(Engine.now engine) (fun () -> Vm_page.free kctx p);
      ignore (Pageout.run_once kctx);
      Alcotest.(check bool) "the object was bound" true (obj.Vm_types.pager <> Vm_types.No_pager);
      check Alcotest.int "no data_write" 0 (Counters.get kctx.Kctx.stats Vm_types.s_data_writes))

(* Random inactive queues: a pass frees clean idle pages up to the
   deficit, launders exactly when they cannot cover it, and never frees
   a referenced or held page. [reclaim_pass] checks the queues. *)
let clean_first_prop =
  let open QCheck2 in
  let spec =
    Gen.(
      map3 (fun dirty referenced held -> { dirty; referenced; held }) bool bool
        (map (fun n -> n = 0) (int_range 0 3)))
  in
  let show s =
    String.concat ""
      [ (if s.dirty then "D" else "C"); (if s.referenced then "r" else "-");
        (if s.held then "h" else "-") ]
  in
  Test.make ~name:"a pass launders only what clean pages cannot cover" ~count:200
    ~print:Print.(pair (list show) int)
    Gen.(pair (list_size (int_range 1 24) spec) (int_range 1 24))
    (fun (specs, deficit) ->
      let freed, writes, pages = reclaim_pass specs ~deficit in
      let idle s = (not s.referenced) && not s.held in
      let freeable = List.length (List.filter (fun s -> idle s && not s.dirty) specs) in
      let launderable = List.exists (fun s -> idle s && s.dirty) specs in
      freed = min freeable deficit
      && (writes > 0) = (freeable < deficit && launderable)
      && List.for_all2 (fun s p -> idle s || not (gone p)) specs pages)

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
      ( "runs",
        [
          Alcotest.test_case "pageout grows a run both ways, up to the window" `Quick
            test_pageout_run_shape;
          Alcotest.test_case "a clean request's runs stop at a clean page and the range end"
            `Quick test_clean_request_run_shape;
          Alcotest.test_case "termination ships ten dirty pages as 8 and 2" `Quick
            test_terminate_run_shape;
          Alcotest.test_case "a clean request waits on a held neighbour" `Quick
            test_clean_request_waits_on_held_neighbour;
        ] );
      ( "reclaim",
        [
          Alcotest.test_case "a held page survives a pass" `Quick test_held_page_survives;
          Alcotest.test_case "a held neighbour ends a run" `Quick test_held_neighbour_ends_run;
          Alcotest.test_case "clean pages go first" `Quick test_clean_pages_go_first;
          Alcotest.test_case "a deficit past the clean pages launders" `Quick
            test_deficit_past_clean_launders;
          Alcotest.test_case "an aging pass wakes the allocator" `Quick
            test_aging_pass_wakes_allocator;
          Alcotest.test_case "a page freed during bind" `Quick test_page_freed_during_bind;
          Alcotest.test_case "a dirty page is set aside once" `Quick
            test_dirty_page_set_aside_once;
          Alcotest.test_case "the launder pass ships the oldest first" `Quick
            test_launder_oldest_first;
          QCheck_alcotest.to_alcotest clean_first_prop;
        ] );
    ]
