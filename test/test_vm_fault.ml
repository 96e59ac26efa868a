(* Fault-handler behaviour (§5.5) and the kernel↔manager protocol
   details (§3.4.1): locks and unlocks, unavailable data, request
   coalescing, shadow chains, failure policies. *)

open Mach
module Mos = Memory_object_server
module Rt = Pager_runtime

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

(* Serve [policy] from a new manager task holding one registered memory
   object. *)
let serve_object kernel ~name policy =
  let rt, srv = Mos.serve (Task.create kernel ~name ()) policy in
  let memory_object = Mos.create_memory_object srv () in
  ignore (Rt.register rt ~memory_object ());
  (rt, memory_object)

(* Page [p] of a test object holds the [p]th capital letter, repeated. *)
let page_data p = Bytes.make page (Char.chr (65 + (p mod 26)))

(* Answer every request with the demanded page alone. *)
let one_page _ _ ~first ~npages:_ = (first, 1)

(* A manager that never answers a data request. *)
let silent =
  { Rt.default_policy with Rt.p_read = (fun _ _ ~request:_ ~page:_ ~npages:_ ~desired_access:_ -> Rt.Defer) }

(* A manager serving one page per request, optionally write-locking
   pages; it records the page of every unlock it grants. *)
let counting_manager kernel ~lock_writes =
  let unlocks = ref [] in
  let policy =
    {
      Rt.default_policy with
      Rt.p_reshape = one_page;
      Rt.p_read =
        (fun rt _ ~request ~page:p ~npages:_ ~desired_access:_ ->
          Rt.data_provided rt ~request ~offset:(p * page) ~data:(page_data p)
            ~lock_value:(if lock_writes then Prot.write else Prot.none);
          Rt.Defer);
      Rt.p_unlock =
        (fun _ _ ~request:_ ~page:p ~desired_access:_ ->
          unlocks := (p * page) :: !unlocks;
          Rt.Grant);
    }
  in
  let rt, memory_object = serve_object kernel ~name:"mgr" policy in
  (rt, memory_object, unlocks)

let test_zero_fill_and_soft_fault () =
  with_system (fun sys task ->
      let addr = Syscalls.vm_allocate task ~size:page ~anywhere:true () in
      let s0 = Counters.get (Kernel.stats sys.Kernel.kernel) Vm_types.s_zero_fill in
      ignore (Syscalls.touch task ~addr ~write:false ());
      let s1 = Counters.get (Kernel.stats sys.Kernel.kernel) Vm_types.s_zero_fill in
      check Alcotest.int "one zero fill" 1 (s1 - s0);
      (* Invalidate the translation but keep the page: refault is soft. *)
      (match Vm_map.pmap (Task.map task) with
      | Some pm -> Mach_hw.Pmap.remove pm ~vpn:(addr / page)
      | None -> ());
      let h0 = Counters.get (Kernel.stats sys.Kernel.kernel) Vm_types.s_hits in
      ignore (Syscalls.touch task ~addr ~write:false ());
      let h1 = Counters.get (Kernel.stats sys.Kernel.kernel) Vm_types.s_hits in
      check Alcotest.int "soft fault hit" 1 (h1 - h0))

let test_manager_write_lock_unlock_flow () =
  with_system (fun sys task ->
      let _rt, memory_object, unlocks = counting_manager sys.Kernel.kernel ~lock_writes:true in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(2 * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      (* Read works under the write lock. *)
      (match Syscalls.read_bytes task ~addr ~len:4 () with
      | Ok b -> check Alcotest.string "read ok" "AAAA" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read: %a" Access.pp_error e);
      check Alcotest.int "no unlock yet" 0 (List.length !unlocks);
      (* Write must trigger pager_data_unlock and then succeed. *)
      (match Syscalls.write_bytes task ~addr (Bytes.of_string "WW") () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %a" Access.pp_error e);
      check Alcotest.(list int) "one unlock for page 0" [ 0 ] !unlocks;
      let stats = Kernel.stats sys.Kernel.kernel in
      Alcotest.(check bool) "unlock counted" true (Counters.get stats Vm_types.s_unlock_requests >= 1))

let test_data_unavailable_zero_fills () =
  with_system (fun sys task ->
      (* The default policy declares every page unavailable. *)
      let _rt, memory_object = serve_object sys.Kernel.kernel ~name:"sparse-mgr" Rt.default_policy in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:page ~anywhere:true ~memory_object ~offset:0 ()
      in
      match Syscalls.read_bytes task ~addr ~len:8 () with
      | Ok b ->
        check Alcotest.string "zero filled" (String.make 8 '\000') (Bytes.to_string b);
        let stats = Kernel.stats sys.Kernel.kernel in
        Alcotest.(check bool) "counted" true (Counters.get stats Vm_types.s_data_unavailable >= 1)
      | Error e -> Alcotest.failf "read: %a" Access.pp_error e)

let test_concurrent_faults_coalesce () =
  with_system (fun sys task ->
      (* A slow manager: both faulters must wait on ONE request. *)
      let policy =
        {
          Rt.default_policy with
          Rt.p_read =
            (fun _ _ ~request:_ ~page:_ ~npages:_ ~desired_access:_ ->
              Engine.sleep 5000.0;
              Rt.Data (Bytes.make page 'S'));
        }
      in
      let rt, memory_object = serve_object sys.Kernel.kernel ~name:"slow-mgr" policy in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:page ~anywhere:true ~memory_object ~offset:0 ()
      in
      let t2 = Task.create sys.Kernel.kernel ~name:"app2" () in
      let addr2 =
        Syscalls.vm_allocate_with_pager t2 ~size:page ~anywhere:true ~memory_object ~offset:0 ()
      in
      let d1 = Ivar.create () and d2 = Ivar.create () in
      ignore
        (Thread.spawn task ~name:"faulter-1" (fun () ->
             ignore (Syscalls.read_bytes task ~addr ~len:1 ());
             Ivar.fill d1 ()));
      ignore
        (Thread.spawn t2 ~name:"faulter-2" (fun () ->
             ignore (Syscalls.read_bytes t2 ~addr:addr2 ~len:1 ());
             Ivar.fill d2 ()));
      Ivar.read d1;
      Ivar.read d2;
      (* Same kernel, same object, same page: one pager_data_request. *)
      check Alcotest.int "coalesced" 1 (Rt.stats rt).Rt.Stats.s_requests)

let test_policy_abort_and_zero_fill () =
  with_system (fun sys task ->
      let _rt, memory_object = serve_object sys.Kernel.kernel ~name:"dead-mgr" silent in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(2 * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      (match Syscalls.read_bytes task ~addr ~len:4 ~policy:(Fault.Abort_after 1000.0) () with
      | Error (Access.Manager_failed _) -> ()
      | Ok _ -> Alcotest.fail "expected abort"
      | Error e -> Alcotest.failf "wrong error: %a" Access.pp_error e);
      (* Zero-fill policy on the other page succeeds with zeroes. *)
      match
        Syscalls.read_bytes task ~addr:(addr + page) ~len:4
          ~policy:(Fault.Zero_fill_after 1000.0) ()
      with
      | Ok b -> check Alcotest.string "zeroes" "\000\000\000\000" (Bytes.to_string b)
      | Error e -> Alcotest.failf "zero-fill policy: %a" Access.pp_error e)

let test_failed_page_refaults () =
  (* A file-backed manager dies while a demanded request is outstanding:
     the placeholder becomes Failed. A refault takes the error step
     (s_slow_error) and fails under Abort_after; under Zero_fill_after
     it reads zeroes and the page becomes Resident (activated). *)
  with_system (fun sys task ->
      let kctx = Kernel.kctx sys.Kernel.kernel in
      let stats = kctx.Kctx.stats in
      let _rt, srv = Mos.serve (Task.create sys.Kernel.kernel ~name:"doomed-mgr" ()) silent in
      let memory_object = Mos.create_memory_object srv () in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:page ~anywhere:true ~memory_object ~offset:0 ()
      in
      Engine.spawn sys.Kernel.engine ~name:"killer" (fun () ->
          Engine.sleep 1000.0;
          Mos.stop srv;
          Port.destroy memory_object);
      (match Syscalls.read_bytes task ~addr ~len:4 ~policy:Fault.Wait_forever () with
      | Error (Access.Manager_failed _) -> ()
      | Ok _ -> Alcotest.fail "a fault on a dead file manager must fail"
      | Error e -> Alcotest.failf "wrong error: %a" Access.pp_error e);
      check Alcotest.int "the demanded page failed at death" 1 (Counters.get stats Vm_types.s_death_errors);
      let obj = Option.get (Vm_object.find_by_port kctx memory_object) in
      let pg = Option.get (Mach_vm.Vm_page.lookup obj ~offset:0) in
      Alcotest.(check bool) "failed placeholder on no queue" true
        (pg.Vm_types.q_state = Vm_types.Q_none);
      let e0 = Counters.get stats Vm_types.s_slow_error in
      (match Syscalls.read_bytes task ~addr ~len:4 ~policy:(Fault.Abort_after 1000.0) () with
      | Error (Access.Manager_failed _) -> ()
      | Ok _ -> Alcotest.fail "refault on a failed page must fail under Abort_after"
      | Error e -> Alcotest.failf "wrong error: %a" Access.pp_error e);
      check Alcotest.int "one error step" 1 (Counters.get stats Vm_types.s_slow_error - e0);
      (match Syscalls.read_bytes task ~addr ~len:4 ~policy:(Fault.Zero_fill_after 1000.0) () with
      | Ok b -> check Alcotest.string "zeroes" "\000\000\000\000" (Bytes.to_string b)
      | Error e -> Alcotest.failf "zero-fill refault: %a" Access.pp_error e);
      check Alcotest.int "second error step" 2 (Counters.get stats Vm_types.s_slow_error - e0);
      Alcotest.(check bool) "same page, now active" true
        (Option.get (Mach_vm.Vm_page.lookup obj ~offset:0) == pg
        && pg.Vm_types.q_state = Vm_types.Q_active);
      (match Vm_map.pmap (Task.map task) with
      | Some pm -> Mach_hw.Pmap.remove pm ~vpn:(addr / page)
      | None -> ());
      let f0 = Counters.get stats Vm_types.s_fast_faults in
      ignore (Syscalls.touch task ~addr ~write:false ());
      check Alcotest.int "resident: the next fault is fast" 1 (Counters.get stats Vm_types.s_fast_faults - f0))

let test_shared_inheritance_read_write () =
  with_system (fun sys task ->
      let addr = Syscalls.vm_allocate task ~size:page ~anywhere:true () in
      ignore (Syscalls.write_bytes task ~addr (Bytes.of_string "before-fork") ());
      Syscalls.vm_inherit task ~addr ~size:page Vm_types.Inherit_share;
      let child = Task.create sys.Kernel.kernel ~parent:task ~name:"sharer" () in
      let done_ = Ivar.create () in
      ignore
        (Thread.spawn child ~name:"sharer.main" (fun () ->
             (match Syscalls.read_bytes child ~addr ~len:11 () with
             | Ok b -> check Alcotest.string "child sees parent" "before-fork" (Bytes.to_string b)
             | Error e -> Alcotest.failf "child read: %a" Access.pp_error e);
             (match Syscalls.write_bytes child ~addr (Bytes.of_string "child-wrote") () with
             | Ok () -> ()
             | Error e -> Alcotest.failf "child write: %a" Access.pp_error e);
             Ivar.fill done_ ()));
      Ivar.read done_;
      match Syscalls.read_bytes task ~addr ~len:11 () with
      | Ok b -> check Alcotest.string "parent sees child write" "child-wrote" (Bytes.to_string b)
      | Error e -> Alcotest.failf "parent read: %a" Access.pp_error e)

let test_three_generation_cow_chain () =
  with_system (fun sys task ->
      let addr = Syscalls.vm_allocate task ~size:page ~anywhere:true () in
      ignore (Syscalls.write_bytes task ~addr (Bytes.of_string "gen0") ());
      let child = Task.create sys.Kernel.kernel ~parent:task ~name:"gen1" () in
      let gc_done = Ivar.create () in
      ignore
        (Thread.spawn child ~name:"gen1.main" (fun () ->
             (* Child writes (shadow #1), then forks a grandchild. *)
             ignore (Syscalls.write_bytes child ~addr (Bytes.of_string "gen1") ());
             let grandchild = Task.create sys.Kernel.kernel ~parent:child ~name:"gen2" () in
             ignore
               (Thread.spawn grandchild ~name:"gen2.main" (fun () ->
                    (match Syscalls.read_bytes grandchild ~addr ~len:4 () with
                    | Ok b ->
                      check Alcotest.string "grandchild reads through chain" "gen1"
                        (Bytes.to_string b)
                    | Error e -> Alcotest.failf "gc read: %a" Access.pp_error e);
                    ignore (Syscalls.write_bytes grandchild ~addr (Bytes.of_string "gen2") ());
                    Ivar.fill gc_done ()))));
      Ivar.read gc_done;
      (* Everyone sees their own value. *)
      (match Syscalls.read_bytes task ~addr ~len:4 () with
      | Ok b -> check Alcotest.string "gen0 isolated" "gen0" (Bytes.to_string b)
      | Error e -> Alcotest.failf "gen0: %a" Access.pp_error e))

let test_manager_flush_drops_clean_pages () =
  with_system (fun sys task ->
      let rt, memory_object, _ = counting_manager sys.Kernel.kernel ~lock_writes:false in
      let requests () = (Rt.stats rt).Rt.Stats.s_requests in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:page ~anywhere:true ~memory_object ~offset:0 ()
      in
      ignore (Syscalls.read_bytes task ~addr ~len:1 ());
      check Alcotest.int "one request" 1 (requests ());
      (* Flush from the manager: the cached page is invalidated. *)
      let kctx = sys.Kernel.kernel.Ktypes.k_kctx in
      let obj = Option.get (Vm_object.find_by_port kctx memory_object) in
      let request_port =
        match obj.Vm_types.pager with
        | Vm_types.Pager p -> Option.get p.Vm_types.request_port
        | Vm_types.No_pager -> Alcotest.fail "expected pager"
      in
      Rt.flush_request rt ~request:request_port ~offset:0 ~length:page;
      Engine.sleep 10_000.0;
      check Alcotest.int "page gone" 0 (Vm_object.resident_count obj);
      (* Refault pulls it again. *)
      ignore (Syscalls.read_bytes task ~addr ~len:1 ());
      check Alcotest.int "second request" 2 (requests ()))

let test_mapping_at_object_offset () =
  (* Table 3-4: the mapped region corresponds to a given offset within
     the memory object; requests arriving at the manager carry object
     offsets, not task addresses. *)
  with_system (fun sys task ->
      let offsets_seen = ref [] in
      let policy =
        {
          Rt.default_policy with
          Rt.p_reshape = one_page;
          Rt.p_read =
            (fun _ _ ~request:_ ~page:p ~npages:_ ~desired_access:_ ->
              offsets_seen := (p * page) :: !offsets_seen;
              Rt.Data (page_data p));
        }
      in
      let _rt, memory_object = serve_object sys.Kernel.kernel ~name:"mgr" policy in
      (* Map pages 4..5 of the object. *)
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(2 * page) ~anywhere:true ~memory_object
          ~offset:(4 * page) ()
      in
      (match Syscalls.read_bytes task ~addr ~len:1 () with
      | Ok b -> check Alcotest.string "object page 4" "E" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read: %a" Access.pp_error e);
      (match Syscalls.read_bytes task ~addr:(addr + page) ~len:1 () with
      | Ok b -> check Alcotest.string "object page 5" "F" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read2: %a" Access.pp_error e);
      check Alcotest.(list int) "manager saw object offsets" [ 4 * page; 5 * page ]
        (List.sort compare !offsets_seen))

let test_two_mappings_same_object_share_pages () =
  with_system (fun sys task ->
      let policy =
        {
          Rt.default_policy with
          Rt.p_read = (fun _ _ ~request:_ ~page:_ ~npages:_ ~desired_access:_ -> Rt.Data (Bytes.make page 's'));
        }
      in
      let rt, memory_object = serve_object sys.Kernel.kernel ~name:"mgr" policy in
      (* "A single memory object may be mapped in more than once" — both
         mappings hit the same cached page. *)
      let a1 =
        Syscalls.vm_allocate_with_pager task ~size:page ~anywhere:true ~memory_object ~offset:0 ()
      in
      let a2 =
        Syscalls.vm_allocate_with_pager task ~size:page ~anywhere:true ~memory_object ~offset:0 ()
      in
      ignore (Syscalls.read_bytes task ~addr:a1 ~len:1 ());
      ignore (Syscalls.read_bytes task ~addr:a2 ~len:1 ());
      check Alcotest.int "one pagein serves both mappings" 1 (Rt.stats rt).Rt.Stats.s_requests;
      (* Writes through one mapping are visible through the other. *)
      (match Syscalls.write_bytes task ~addr:a1 (Bytes.of_string "W") () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %a" Access.pp_error e);
      match Syscalls.read_bytes task ~addr:a2 ~len:1 () with
      | Ok b -> check Alcotest.string "aliased" "W" (Bytes.to_string b)
      | Error e -> Alcotest.failf "aliased read: %a" Access.pp_error e)

let test_protection_fault_surfaces () =
  with_system (fun _sys task ->
      let addr = Syscalls.vm_allocate task ~size:page ~anywhere:true () in
      Syscalls.vm_protect task ~addr ~size:page ~set_max:false Prot.read;
      match Syscalls.write_bytes task ~addr (Bytes.of_string "x") () with
      | Error (Access.Access_denied _) -> ()
      | Ok () -> Alcotest.fail "write must be denied"
      | Error e -> Alcotest.failf "wrong error: %a" Access.pp_error e)

let test_write_across_protection_boundary () =
  (* A multi-page write that starts in a writable entry and crosses into
     a read-only one must fail at the boundary, leaving the writable
     part written. *)
  with_system (fun _sys task ->
      let addr = Syscalls.vm_allocate task ~size:(2 * page) ~anywhere:true () in
      Syscalls.vm_protect task ~addr:(addr + page) ~size:page ~set_max:false Prot.read;
      let data = Bytes.make (page + 8) 'B' in
      (match Syscalls.write_bytes task ~addr data () with
      | Error (Access.Access_denied a) -> check Alcotest.int "failed at boundary" (addr + page) a
      | Ok () -> Alcotest.fail "must not cross into read-only page"
      | Error e -> Alcotest.failf "wrong error: %a" Access.pp_error e);
      match Syscalls.read_bytes task ~addr ~len:4 () with
      | Ok b -> check Alcotest.string "first page written" "BBBB" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read: %a" Access.pp_error e)

let test_regions_expose_pager_name_port () =
  (* vm_regions identifies pager-backed regions by the pager name port
     (§3.4.1, footnote 3: never the memory object or request port). *)
  with_system (fun sys task ->
      let _rt, memory_object = serve_object sys.Kernel.kernel ~name:"mgr" silent in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:page ~anywhere:true ~memory_object ~offset:0 ()
      in
      let region =
        List.find (fun r -> r.Vm_map.ri_start = addr) (Syscalls.vm_regions task)
      in
      match region.Vm_map.ri_name_port with
      | Some name_port ->
        Alcotest.(check bool) "name port is not the memory object" false
          (Mach_ipc.Port.equal name_port memory_object)
      | None -> Alcotest.fail "pager-backed region must expose its name port")

(* A manager recording (offset, length) of every data request, providing
   [serve] pages per request (the kernel may ask for a whole cluster). *)
let recording_manager kernel ~serve =
  let requests = ref [] in
  let policy =
    {
      Rt.default_policy with
      Rt.p_reshape =
        (fun _ _ ~first ~npages ->
          requests := (first * page, npages * page) :: !requests;
          (first, min npages serve));
      Rt.p_read = (fun _ _ ~request:_ ~page:p ~npages:_ ~desired_access:_ -> Rt.Data (page_data p));
    }
  in
  let _rt, memory_object = serve_object kernel ~name:"rec-mgr" policy in
  (memory_object, requests)

let test_clustered_request_multi_page_provide () =
  (* A hard read fault asks for a whole cluster in ONE message; a manager
     that honors the length fills every page, and the neighbors are then
     touched without any further pager traffic. *)
  with_system (fun sys task ->
      let memory_object, requests = recording_manager sys.Kernel.kernel ~serve:8 in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(8 * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      for i = 0 to 7 do
        match Syscalls.read_bytes task ~addr:(addr + (i * page)) ~len:1 () with
        | Ok b ->
          check Alcotest.string
            (Printf.sprintf "page %d content" i)
            (String.make 1 (Char.chr (65 + i)))
            (Bytes.to_string b)
        | Error e -> Alcotest.failf "read %d: %a" i Access.pp_error e
      done;
      check
        Alcotest.(list (pair int int))
        "one clustered request" [ (0, 8 * page) ] !requests;
      let stats = Kernel.stats sys.Kernel.kernel in
      check Alcotest.int "eight pages paged in" 8 (Counters.get stats Vm_types.s_pageins);
      Alcotest.(check bool) "cluster counted" true (Counters.get stats Vm_types.s_cluster_pages >= 7))

let test_cluster_clipped_at_object_end () =
  (* The cluster window must not run past the end of the memory object:
     a 3-page object gets a 3-page request, not the full window. *)
  with_system (fun sys task ->
      let memory_object, requests = recording_manager sys.Kernel.kernel ~serve:8 in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(3 * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      (match Syscalls.read_bytes task ~addr ~len:1 () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "read: %a" Access.pp_error e);
      check
        Alcotest.(list (pair int int))
        "request clipped to object size" [ (0, 3 * page) ] !requests)

let test_cluster_partial_provide_rerequest () =
  (* A manager that answers only the first page of each request: a fault
     landing on an unfilled speculative placeholder must promote it and
     re-request that page alone; the reclaim timer frees the rest. *)
  with_system (fun sys task ->
      let memory_object, requests = recording_manager sys.Kernel.kernel ~serve:1 in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(8 * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      (match Syscalls.read_bytes task ~addr ~len:1 () with
      | Ok b -> check Alcotest.string "page 0" "A" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read 0: %a" Access.pp_error e);
      (match Syscalls.read_bytes task ~addr:(addr + (2 * page)) ~len:1 () with
      | Ok b -> check Alcotest.string "page 2 via re-request" "C" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read 2: %a" Access.pp_error e);
      (match List.rev !requests with
      | [ (o1, l1); (o2, l2) ] ->
        check Alcotest.int "first request offset" 0 o1;
        check Alcotest.int "first request is clustered" (8 * page) l1;
        check Alcotest.int "re-request offset" (2 * page) o2;
        check Alcotest.int "re-request is a single page" page l2
      | rs -> Alcotest.failf "expected 2 requests, saw %d" (List.length rs));
      (* Past the pager timeout the unfilled placeholders are reclaimed:
         only the two demanded pages stay resident. *)
      Engine.sleep 2_500_000.0;
      let kctx = sys.Kernel.kernel.Ktypes.k_kctx in
      let obj = Option.get (Vm_object.find_by_port kctx memory_object) in
      check Alcotest.int "speculative placeholders reclaimed" 2
        (Vm_object.resident_count obj))

let test_zero_fill_races_multi_page_provide () =
  (* Zero_fill_after fires before a slow manager's clustered provide
     lands: the demanded page keeps its zeroes (late data is dropped),
     while the still-absent neighbors accept the provide. *)
  with_system (fun sys task ->
      let policy =
        {
          Rt.default_policy with
          (* The manager is slow once per request, and [p_reshape] runs
             once per request. *)
          Rt.p_reshape =
            (fun _ _ ~first ~npages ->
              Engine.sleep 5000.0;
              (first, npages));
          Rt.p_read = (fun _ _ ~request:_ ~page:p ~npages:_ ~desired_access:_ -> Rt.Data (page_data p));
        }
      in
      let rt, memory_object = serve_object sys.Kernel.kernel ~name:"slow-mgr" policy in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(4 * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      (match Syscalls.read_bytes task ~addr ~len:4 ~policy:(Fault.Zero_fill_after 1000.0) () with
      | Ok b -> check Alcotest.string "zero-filled under policy" "\000\000\000\000" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read: %a" Access.pp_error e);
      (* Let the clustered provide arrive. *)
      Engine.sleep 10_000.0;
      (match Syscalls.read_bytes task ~addr ~len:4 () with
      | Ok b -> check Alcotest.string "late data dropped" "\000\000\000\000" (Bytes.to_string b)
      | Error e -> Alcotest.failf "reread: %a" Access.pp_error e);
      (match Syscalls.read_bytes task ~addr:(addr + page) ~len:1 () with
      | Ok b -> check Alcotest.string "neighbor filled by provide" "B" (Bytes.to_string b)
      | Error e -> Alcotest.failf "neighbor: %a" Access.pp_error e);
      check Alcotest.int "single clustered request" 1 (Rt.stats rt).Rt.Stats.s_requests)

let test_bad_address_surfaces () =
  with_system (fun _sys task ->
      match Syscalls.read_bytes task ~addr:0x7f000000 ~len:1 () with
      | Error (Access.Bad_address _) -> ()
      | Ok _ -> Alcotest.fail "unmapped read must fail"
      | Error e -> Alcotest.failf "wrong error: %a" Access.pp_error e)

(* Take free frames out of the allocator until [free] are left. No
   page holds them, so the pageout daemon cannot win them back. *)
let leave_free sys free =
  let mem = (Kernel.kctx sys.Kernel.kernel).Kctx.mem in
  while Phys_mem.free_frames mem > free do
    ignore (Phys_mem.alloc mem)
  done

let test_cluster_between_watermarks () =
  (* Memory sits below the free target (the pageout daemon's high
     watermark) but above the low watermark: a paging workload's steady
     state. The read fault still clusters. *)
  with_system (fun sys task ->
      let kctx = Kernel.kctx sys.Kernel.kernel in
      let memory_object, requests = recording_manager sys.Kernel.kernel ~serve:8 in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(4 * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      let free = Kctx.free_low_watermark kctx + 4 in
      Alcotest.(check bool) "below the high watermark" true (free < Kctx.free_high_watermark kctx);
      leave_free sys free;
      (match Syscalls.read_bytes task ~addr ~len:(4 * page) () with
      | Ok b ->
        check Alcotest.string "last page" "D" (Bytes.sub_string b (3 * page) 1)
      | Error e -> Alcotest.failf "read: %a" Access.pp_error e);
      check
        Alcotest.(list (pair int int))
        "one request for 4 pages" [ (0, 4 * page) ] !requests;
      Alcotest.(check bool) "the cluster left the low watermark's frames" true
        (Phys_mem.free_frames kctx.Kctx.mem >= Kctx.free_low_watermark kctx))

let test_write_fault_clusters () =
  (* A write fault asks for its neighbours too, but only the demanded
     page is written: the others arrive clean, so cleaning the object
     afterwards ships one page. *)
  with_system (fun sys task ->
      let requests = ref [] and written = ref [] in
      let request_port = Ivar.create () in
      let policy =
        {
          Rt.default_policy with
          Rt.p_init = (fun _ _ ~request -> Ivar.fill request_port request);
          Rt.p_reshape =
            (fun _ _ ~first ~npages ->
              requests := (first * page, npages * page) :: !requests;
              (first, npages));
          Rt.p_read = (fun _ _ ~request:_ ~page:p ~npages:_ ~desired_access:_ -> Rt.Data (page_data p));
          Rt.p_write =
            (fun _ _ ~offset ~data -> written := (offset, Bytes.length data) :: !written);
        }
      in
      let rt, memory_object = serve_object sys.Kernel.kernel ~name:"wr-mgr" policy in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(4 * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      ignore (Syscalls.touch task ~addr ~write:true ());
      check Alcotest.(list (pair int int)) "one request for 4 pages" [ (0, 4 * page) ] !requests;
      (match Syscalls.read_bytes task ~addr:(addr + page) ~len:1 () with
      | Ok b -> check Alcotest.string "neighbour resident" "B" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read: %a" Access.pp_error e);
      check Alcotest.int "no second request" 1 (List.length !requests);
      Rt.clean_request rt ~request:(Ivar.read request_port) ~offset:0 ~length:(4 * page);
      Engine.sleep 50_000.0;
      check Alcotest.(list (pair int int)) "only the written page is dirty" [ (0, page) ] !written)

let () =
  Alcotest.run "vm_fault"
    [
      ( "fault-paths",
        [
          Alcotest.test_case "zero-fill then soft" `Quick test_zero_fill_and_soft_fault;
          Alcotest.test_case "protection fault" `Quick test_protection_fault_surfaces;
          Alcotest.test_case "bad address" `Quick test_bad_address_surfaces;
          Alcotest.test_case "write across protection boundary" `Quick
            test_write_across_protection_boundary;
          Alcotest.test_case "vm_regions exposes pager name port" `Quick
            test_regions_expose_pager_name_port;
          Alcotest.test_case "three-generation COW chain" `Quick test_three_generation_cow_chain;
          Alcotest.test_case "shared inheritance" `Quick test_shared_inheritance_read_write;
        ] );
      ( "pager-protocol",
        [
          Alcotest.test_case "write lock and unlock flow" `Quick test_manager_write_lock_unlock_flow;
          Alcotest.test_case "data unavailable zero-fills" `Quick test_data_unavailable_zero_fills;
          Alcotest.test_case "concurrent faults coalesce" `Quick test_concurrent_faults_coalesce;
          Alcotest.test_case "abort and zero-fill policies" `Quick test_policy_abort_and_zero_fill;
          Alcotest.test_case "failed page refaults" `Quick test_failed_page_refaults;
          Alcotest.test_case "manager flush drops clean pages" `Quick
            test_manager_flush_drops_clean_pages;
          Alcotest.test_case "mapping at object offset" `Quick test_mapping_at_object_offset;
          Alcotest.test_case "multiple mappings share pages" `Quick
            test_two_mappings_same_object_share_pages;
        ] );
      ( "clustered-paging",
        [
          Alcotest.test_case "clustered request, multi-page provide" `Quick
            test_clustered_request_multi_page_provide;
          Alcotest.test_case "cluster clipped at object end" `Quick
            test_cluster_clipped_at_object_end;
          Alcotest.test_case "partial provide triggers re-request" `Quick
            test_cluster_partial_provide_rerequest;
          Alcotest.test_case "zero-fill races multi-page provide" `Quick
            test_zero_fill_races_multi_page_provide;
          Alcotest.test_case "read fault clusters between the watermarks" `Quick
            test_cluster_between_watermarks;
          Alcotest.test_case "write fault clusters, only its page dirty" `Quick
            test_write_fault_clusters;
        ] );
    ]
