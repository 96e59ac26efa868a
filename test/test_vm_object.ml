(* Direct unit tests for memory-object structures: shadow-chain offset
   translation, collapse with non-zero backing offsets, reference
   counting, and cached-object revival. *)

module Engine = Mach_sim.Engine
module Counters = Mach_util.Metrics.Counters
module Net = Mach_hw.Net
module Machine = Mach_hw.Machine
module Phys_mem = Mach_hw.Phys_mem
module Context = Mach_ipc.Context
module Port = Mach_ipc.Port
module Kctx = Mach_vm.Kctx
module Vm_types = Mach_vm.Vm_types
module Vm_object = Mach_vm.Vm_object
module Vm_page = Mach_vm.Vm_page
module Page_queues = Mach_vm.Page_queues

let check = Alcotest.check
let page = 4096

let make_kctx ?(frames = 64) () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let ctx = Context.create eng net in
  let mem = Phys_mem.create ~frames ~page_size:page in
  let kctx = Kctx.create eng ctx ~host:0 ~params:Machine.uniprocessor ~mem () in
  Mach_vm.Pager_client.install kctx;
  kctx

let add_page kctx obj ~offset tagchar =
  let frame = Option.get (Phys_mem.alloc kctx.Kctx.mem) in
  let p = Vm_page.insert kctx obj ~offset ~frame ~state:Resident in
  Phys_mem.fill kctx.Kctx.mem frame tagchar;
  Page_queues.activate kctx.Kctx.queues p;
  p

let frame_tag kctx (p : Vm_types.page) = Bytes.get (Phys_mem.data kctx.Kctx.mem p.Vm_types.frame) 0

let test_chain_lookup_with_offsets () =
  let kctx = make_kctx () in
  (* Backing object B has pages at 4*page and 5*page; shadow S views B
     from offset 4*page, so S offset 0 = B offset 4*page. *)
  let b = Vm_object.create_anonymous kctx ~size:(8 * page) in
  ignore (add_page kctx b ~offset:(4 * page) 'x');
  ignore (add_page kctx b ~offset:(5 * page) 'y');
  let s = Vm_object.create_shadow kctx ~backs:b ~offset:(4 * page) ~size:(2 * page) in
  check Alcotest.int "depth" 1 (Vm_object.chain_depth s);
  (match Vm_object.lookup_chain s ~offset:0 with
  | Some (p, owner, depth) ->
    check Alcotest.int "found below" 1 depth;
    Alcotest.(check bool) "owner is b" true (owner == b);
    check Alcotest.char "right page" 'x' (frame_tag kctx p)
  | None -> Alcotest.fail "page not found through chain");
  (match Vm_object.lookup_chain s ~offset:page with
  | Some (p, _, _) -> check Alcotest.char "offset translation" 'y' (frame_tag kctx p)
  | None -> Alcotest.fail "second page not found");
  (* A page in the shadow itself hides the backing page. *)
  ignore (add_page kctx s ~offset:0 'S');
  match Vm_object.lookup_chain s ~offset:0 with
  | Some (p, _, 0) -> check Alcotest.char "shadow page wins" 'S' (frame_tag kctx p)
  | Some _ -> Alcotest.fail "expected depth 0"
  | None -> Alcotest.fail "shadow page missing"

let test_collapse_with_offset_delta () =
  let kctx = make_kctx () in
  let b = Vm_object.create_anonymous kctx ~size:(8 * page) in
  ignore (add_page kctx b ~offset:(4 * page) 'x');
  ignore (add_page kctx b ~offset:(6 * page) 'z');
  let s = Vm_object.create_shadow kctx ~backs:b ~offset:(4 * page) ~size:(2 * page) in
  (* Drop b's other reference so s is its only user. *)
  (* create_shadow gave b ref 2 (1 original + 1 from shadow); simulate
     the original owner going away: *)
  Vm_object.deallocate kctx b;
  check Alcotest.int "b has one ref" 1 b.Vm_types.ref_count;
  Vm_object.collapse kctx s;
  check Alcotest.int "chain flattened" 0 (Vm_object.chain_depth s);
  check Alcotest.int "one collapse" 1 (Counters.get kctx.Kctx.stats Vm_types.s_collapses);
  (* b's page at 4*page moved to s offset 0; the out-of-view page at
     6*page (s covers only 2 pages from base 4*page... offset 6*page ->
     up_offset 2*page which is beyond s's 2-page span) was freed. *)
  (match Vm_object.lookup_chain s ~offset:0 with
  | Some (p, owner, 0) ->
    Alcotest.(check bool) "page now owned by s" true (owner == s);
    check Alcotest.char "data preserved" 'x' (frame_tag kctx p)
  | Some _ | None -> Alcotest.fail "moved page missing");
  Alcotest.(check bool) "backing gone" true (s.Vm_types.backing = None);
  Alcotest.(check bool) "b dead" false b.Vm_types.obj_alive

let test_collapse_skips_shared_backing () =
  let kctx = make_kctx () in
  let b = Vm_object.create_anonymous kctx ~size:page in
  ignore (add_page kctx b ~offset:0 'x');
  let s1 = Vm_object.create_shadow kctx ~backs:b ~offset:0 ~size:page in
  let _s2 = Vm_object.create_shadow kctx ~backs:b ~offset:0 ~size:page in
  (* b now has 3 refs (original + two shadows): no collapse allowed. *)
  Vm_object.collapse kctx s1;
  check Alcotest.int "still chained" 1 (Vm_object.chain_depth s1);
  check Alcotest.int "no collapse" 0 (Counters.get kctx.Kctx.stats Vm_types.s_collapses)

let test_collapse_respects_toggle () =
  let kctx = make_kctx () in
  kctx.Kctx.enable_collapse <- false;
  let b = Vm_object.create_anonymous kctx ~size:page in
  let s = Vm_object.create_shadow kctx ~backs:b ~offset:0 ~size:page in
  Vm_object.deallocate kctx b;
  Vm_object.collapse kctx s;
  check Alcotest.int "disabled: no collapse" 1 (Vm_object.chain_depth s)

let test_cached_object_revival () =
  let kctx = make_kctx () in
  let eng = kctx.Kctx.engine in
  let port = Port.create kctx.Kctx.ctx ~home:0 () in
  let obj = Vm_object.create_external kctx ~memory_object:port ~size:(2 * page) in
  obj.Vm_types.can_persist <- true;
  ignore (add_page kctx obj ~offset:0 'c');
  (* Last reference dropped: the object is cached, pages intact. *)
  Engine.spawn eng (fun () -> Vm_object.deallocate kctx obj);
  Engine.run eng;
  Alcotest.(check bool) "alive in cache" true obj.Vm_types.obj_alive;
  check Alcotest.int "page kept" 1 (Vm_object.resident_count obj);
  (* Re-lookup by port revives the same structure. *)
  let again = Vm_object.create_external kctx ~memory_object:port ~size:(2 * page) in
  Alcotest.(check bool) "same object" true (again == obj);
  check Alcotest.int "one ref again" 1 again.Vm_types.ref_count;
  Alcotest.(check bool) "left the cache list" true
    (not (Vm_object.cache_is_member kctx obj))

let test_chain_has_pager_translation () =
  let kctx = make_kctx () in
  let port = Port.create kctx.Kctx.ctx ~home:0 () in
  let backed = Vm_object.create_external kctx ~memory_object:port ~size:(8 * page) in
  let s = Vm_object.create_shadow kctx ~backs:backed ~offset:(2 * page) ~size:(4 * page) in
  match Vm_object.chain_has_pager s ~offset:page with
  | Some (owner, off) ->
    Alcotest.(check bool) "pager owner" true (owner == backed);
    check Alcotest.int "translated offset" (3 * page) off
  | None -> Alcotest.fail "pager not found through chain"

(* qcheck: the pageout queues stay consistent with each page's q_state
   and page state under random activate/deactivate/launder/remove
   sequences. Laundering goes through the Cleaning transition, and a
   Cleaning page is cleaned before any other queue operation, as
   release_write does. *)
let page_queue_prop =
  let open QCheck2 in
  Test.make ~name:"page queues consistent under random transitions" ~count:150
    Gen.(list_size (int_range 1 40) (pair (int_range 0 7) (int_range 0 3)))
    (fun ops ->
      let kctx = make_kctx ~frames:16 () in
      let q = kctx.Kctx.queues in
      let obj = Vm_object.create_anonymous kctx ~size:(8 * page) in
      let pages =
        Array.init 8 (fun i ->
            let frame = Option.get (Phys_mem.alloc kctx.Kctx.mem) in
            Vm_page.insert kctx obj ~offset:(i * page) ~frame ~state:Resident)
      in
      let ok = ref true in
      let verify () =
        let active = ref 0 and inactive = ref 0 and laundry = ref 0 in
        Array.iter
          (fun (p : Vm_types.page) ->
            match p.Vm_types.q_state with
            | Vm_types.Q_active -> incr active
            | Vm_types.Q_inactive -> incr inactive
            | Vm_types.Q_laundry -> incr laundry
            | Vm_types.Q_none -> ())
          pages;
        if !active <> Page_queues.active_count q then ok := false;
        if !inactive <> Page_queues.inactive_count q then ok := false;
        if !laundry <> Page_queues.laundry_count q then ok := false;
        match Page_queues.check_invariants q with Ok () -> () | Error _ -> ok := false
      in
      List.iter
        (fun (idx, op) ->
          let p = pages.(idx) in
          if p.Vm_types.p_state = Vm_types.Cleaning then Vm_page.cleaned p;
          (match op with
          | 0 -> Page_queues.activate q p
          | 1 -> Page_queues.deactivate q p
          | 2 -> Vm_page.launder kctx p
          | _ -> Page_queues.remove q p);
          verify ())
        ops;
      (* Draining: oldest_active/inactive agree with membership. *)
      (match Page_queues.oldest_active q with
      | Some p -> if p.Vm_types.q_state <> Vm_types.Q_active then ok := false
      | None -> if Page_queues.active_count q <> 0 then ok := false);
      !ok)

let () =
  Alcotest.run "vm_object"
    [
      ( "shadow-chains",
        [
          Alcotest.test_case "lookup with offset deltas" `Quick test_chain_lookup_with_offsets;
          Alcotest.test_case "collapse with offset delta" `Quick test_collapse_with_offset_delta;
          Alcotest.test_case "collapse skips shared backing" `Quick
            test_collapse_skips_shared_backing;
          Alcotest.test_case "collapse toggle" `Quick test_collapse_respects_toggle;
          Alcotest.test_case "pager lookup through chain" `Quick test_chain_has_pager_translation;
        ] );
      ( "object-cache",
        [ Alcotest.test_case "cached object revival" `Quick test_cached_object_revival ] );
      ("page-queues", [ QCheck_alcotest.to_alcotest page_queue_prop ]);
    ]
