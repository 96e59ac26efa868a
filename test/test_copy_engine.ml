(* Copy-engine tests: page stealing and clustered COW resolution must
   be invisible to programs (byte-identical with a naive eager-copy
   oracle), fork/exit generations must not accrete
   shadow-chain depth, the terminate-path collapse must fire when a
   backing object's last sibling exits and keep the survivor's
   translations, copy-ahead must fire only on sequential COW faults,
   and the object cache must evict in LRU order at its cap. *)

open Mach
module Vm_page = Mach_vm.Vm_page
module Page_queues = Mach_vm.Page_queues
module Dlist = Mach_util.Dlist

let check = Alcotest.check
let page = 4096

(* ---- harnesses -------------------------------------------------------- *)

(* Bare kctx for object-level tests (no tasks, no scheduler). *)
let make_kctx ?(frames = 64) () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let ctx = Context.create eng net in
  let mem = Phys_mem.create ~frames ~page_size:page in
  let kctx = Kctx.create eng ctx ~host:0 ~params:Machine.uniprocessor ~mem () in
  kctx

let add_page kctx obj ~offset tagchar =
  let frame = Option.get (Phys_mem.alloc kctx.Kctx.mem) in
  let p = Vm_page.insert kctx obj ~offset ~frame ~state:Resident in
  Phys_mem.fill kctx.Kctx.mem frame tagchar;
  Page_queues.activate kctx.Kctx.queues p;
  p

let frame_tag kctx (p : Vm_types.page) = Bytes.get (Phys_mem.data kctx.Kctx.mem p.Vm_types.frame) 0

(* Full system; runs [f sys task] on a fresh task's thread and returns
   its result. *)
let with_system ?config f =
  let sys = Kernel.create_system ?config () in
  let result = ref None in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let task = Task.create sys.Kernel.kernel ~name:"main" () in
      ignore (Thread.spawn task ~name:"main.t" (fun () -> result := Some (f sys task))));
  Engine.run sys.Kernel.engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "system run did not complete"

(* Run [f] to completion on a fresh thread of [child]. *)
let in_child child name f =
  let finished = Ivar.create () in
  ignore
    (Thread.spawn child ~name (fun () ->
         f ();
         Ivar.fill finished ()));
  Ivar.read finished

(* Max shadow-chain depth under any of the task's direct entries. *)
let chain_depth_of task =
  List.fold_left
    (fun acc e ->
      match e.Vm_map.backing with
      | Vm_map.Direct d -> max acc (Vm_object.chain_depth d.Vm_map.d_obj)
      | Vm_map.Shared _ -> acc)
    0
    (Vm_map.entries (Task.map task))

(* Generational churn: fork a child, let it dirty a quarter of the
   region, exit it, then have the parent write a few spread pages —
   the e11 "lazy" pattern that exercises stealing and both collapse
   triggers. Returns the parent's chain depth observed after each
   generation. *)
let churn sys task ~pages ~gens =
  let kernel = sys.Kernel.kernel in
  let addr = Syscalls.vm_allocate task ~size:(pages * page) ~anywhere:true () in
  let w t a =
    match Syscalls.touch t ~addr:a ~write:true () with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "write fault failed"
  in
  for i = 0 to pages - 1 do
    w task (addr + (i * page))
  done;
  let depths = ref [] in
  for g = 1 to gens do
    let child = Task.create kernel ~parent:task ~name:(Printf.sprintf "gen%d" g) () in
    in_child child (Printf.sprintf "gen%d.main" g) (fun () ->
        for i = 0 to (pages / 4) - 1 do
          w child (addr + (i * page))
        done);
    Task.terminate child;
    for i = 0 to 3 do
      w task (addr + (i * pages / 4 * page))
    done;
    depths := chain_depth_of task :: !depths
  done;
  Syscalls.vm_deallocate task ~addr ~size:(pages * page);
  List.rev !depths

(* ---- chain depth stays bounded over fork/exit generations ------------- *)

let test_chain_depth_bounded () =
  let depths, stats =
    with_system (fun sys task ->
        let depths = churn sys task ~pages:16 ~gens:8 in
        (depths, Kernel.stats sys.Kernel.kernel))
  in
  check Alcotest.int "eight generations observed" 8 (List.length depths);
  List.iteri
    (fun i d ->
      if d > 2 then Alcotest.failf "generation %d left chain depth %d (bound 2)" (i + 1) d)
    depths;
  Alcotest.(check bool) "collapses fired every generation" true
    (Counters.get stats Vm_types.s_collapses >= 8);
  Alcotest.(check bool) "walked depth also bounded" true
    (Counters.get stats Vm_types.s_chain_depth_peak <= 2)

(* ---- churn exercises both mechanisms ---------------------------------- *)

let test_steal_and_cluster () =
  let stats =
    with_system (fun sys task ->
        ignore (churn sys task ~pages:16 ~gens:4);
        Kernel.stats sys.Kernel.kernel)
  in
  Alcotest.(check bool) "pages stolen" true (Counters.get stats Vm_types.s_cow_steals > 0);
  Alcotest.(check bool) "copy faults clustered" true (Counters.get stats Vm_types.s_cow_batched > 0)

(* ---- collapse keeps translations -------------------------------------- *)

let touch t a ~write =
  match Syscalls.touch t ~addr:a ~write () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "touch failed"

let store t a v =
  match Syscalls.write_bytes t ~addr:a (Bytes.make 1 (Char.chr v)) () with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "store failed"

let load t a =
  match Syscalls.read_bytes t ~addr:a ~len:1 () with
  | Ok b -> Bytes.get_uint8 b 0
  | Error _ -> Alcotest.fail "load failed"

(* The child's exit collapses the parent's shadow over the formerly
   shared object. The pages move up with the parent's read-only
   translations intact: rereading them faults nowhere, and a write
   upgrades in place without a COW fault or a copy. *)
let test_collapse_keeps_translations () =
  with_system (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let stats = Kernel.stats kernel in
      let pages = 64 in
      let addr = Syscalls.vm_allocate task ~size:(pages * page) ~anywhere:true () in
      let at i = addr + (i * page) in
      for i = 0 to pages - 1 do
        store task (at i) 1
      done;
      let child = Task.create kernel ~parent:task ~name:"child" () in
      (* One parent write gives the parent its own shadow: the survivor. *)
      store task (at 0) 1;
      (* The child's copies leave the parent's translations in place. *)
      in_child child "child.main" (fun () -> List.iter (fun i -> store child (at i) 2) [ 40; 50; 60 ]);
      let collapses0 = Counters.get stats Vm_types.s_collapses in
      Task.terminate child;
      check Alcotest.int "the exit collapsed the parent's chain" (collapses0 + 1)
        (Counters.get stats Vm_types.s_collapses);
      let faults0 = Counters.get stats Vm_types.s_faults in
      for i = 0 to pages - 1 do
        check Alcotest.int "parent sees its own data" 1 (load task (at i))
      done;
      check Alcotest.int "rereads fault nowhere" faults0 (Counters.get stats Vm_types.s_faults);
      let cow0 = Counters.get stats Vm_types.s_cow_faults in
      let batched0 = Counters.get stats Vm_types.s_cow_batched in
      let frames0 = Kernel.free_frames kernel in
      store task (at 40) 3;
      check Alcotest.int "write to a formerly shared page: no COW fault" cow0
        (Counters.get stats Vm_types.s_cow_faults);
      check Alcotest.int "and no copy-ahead" batched0 (Counters.get stats Vm_types.s_cow_batched);
      check Alcotest.int "and no frame taken" frames0 (Kernel.free_frames kernel);
      check Alcotest.int "write landed" 3 (load task (at 40)))

(* ---- a COW copy changes only the faulting map's view ------------------ *)

(* The child's copy of a page leaves the parent's read-only translation
   of the original in place: the parent still reads its own data through
   it, so the read does not fault. *)
let test_copy_keeps_other_translations () =
  with_system (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let stats = Kernel.stats kernel in
      let addr = Syscalls.vm_allocate task ~size:page ~anywhere:true () in
      store task addr 1;
      let child = Task.create kernel ~parent:task ~name:"child" () in
      in_child child "child.main" (fun () -> store child addr 2);
      let faults0 = Counters.get stats Vm_types.s_faults in
      check Alcotest.int "parent reads its own data" 1 (load task addr);
      check Alcotest.int "through the translation it kept" faults0
        (Counters.get stats Vm_types.s_faults);
      in_child child "child.check" (fun () ->
          check Alcotest.int "child reads its copy" 2 (load child addr)))

(* Once the live child holds its own copy of a page, the original is
   visible to the parent alone: the parent's write renames it into the
   parent's shadow instead of copying it. *)
let test_steal_page_sibling_copied () =
  with_system (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let stats = Kernel.stats kernel in
      let addr = Syscalls.vm_allocate task ~size:page ~anywhere:true () in
      store task addr 1;
      let child = Task.create kernel ~parent:task ~name:"child" () in
      in_child child "child.main" (fun () -> store child addr 2);
      let steals0 = Counters.get stats Vm_types.s_cow_steals in
      let cow0 = Counters.get stats Vm_types.s_cow_faults in
      let frames0 = Kernel.free_frames kernel in
      store task addr 3;
      check Alcotest.int "one COW fault" (cow0 + 1) (Counters.get stats Vm_types.s_cow_faults);
      check Alcotest.int "resolved by a steal" (steals0 + 1)
        (Counters.get stats Vm_types.s_cow_steals);
      check Alcotest.int "no page copied: no frame taken" frames0 (Kernel.free_frames kernel);
      check Alcotest.int "parent sees its write" 3 (load task addr);
      in_child child "child.check" (fun () ->
          check Alcotest.int "child keeps its copy" 2 (load child addr)))

(* A sharing map holds one reference to its object while several maps
   reach it. A region shared by inheritance and then frozen by a
   snapshot gets a fresh shadow with one reference on the writer's next
   write; the sharer's translation of the frozen page must still go, so
   the sharer reads the writer's new bytes. *)
let test_share_map_sharer_sees_copy () =
  with_system (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let addr = Syscalls.vm_allocate task ~size:page ~anywhere:true () in
      store task addr 1;
      Syscalls.vm_inherit task ~addr ~size:page Inherit_share;
      let sharer = Task.create kernel ~parent:task ~name:"sharer" () in
      in_child sharer "sharer.read" (fun () ->
          check Alcotest.int "sharer maps the page" 1 (load sharer addr));
      let snapshot = Vm_map.copyin (Task.map task) ~addr ~size:page in
      store task addr 2;
      in_child sharer "sharer.reread" (fun () ->
          check Alcotest.int "sharer reads the writer's new bytes" 2 (load sharer addr));
      Vm_map.copy_discard snapshot)

(* ---- fork under paging pressure --------------------------------------- *)

(* A parent region larger than physical memory, forked and touched:
   pageout binds the parent's intermediate shadows to the default pager,
   and every load must still return the parent's last store, whether the
   newest copy is resident, in a deeper object, or with the pager. *)
let test_fork_under_paging_keeps_writes () =
  let config = { Kernel.default_config with Kernel.phys_frames = 64 } in
  let pages = 48 and cycles = 4 and touches = 128 in
  let bad, pageouts =
    with_system ~config (fun sys task ->
        let kernel = sys.Kernel.kernel in
        let rng = Mach_util.Rng.create 1 in
        let addr = Syscalls.vm_allocate task ~size:(pages * page) ~anywhere:true () in
        let word v =
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 (Int64.of_int v);
          b
        in
        let last = Array.init pages (fun p -> p) in
        let store p v =
          match Syscalls.write_bytes task ~addr:(addr + (p * page)) (word v) () with
          | Ok () -> last.(p) <- v
          | Error _ -> Alcotest.fail "store failed"
        in
        for p = 0 to pages - 1 do
          store p p
        done;
        let bad = ref 0 in
        for c = 1 to cycles do
          let child = Task.create kernel ~parent:task ~name:(Printf.sprintf "c%d" c) () in
          for i = 1 to touches do
            let p = Mach_util.Rng.int rng pages in
            if Mach_util.Rng.int rng 100 < 25 then store p ((c * 1000) + i)
            else
              match Syscalls.read_bytes task ~addr:(addr + (p * page)) ~len:8 () with
              | Ok b -> if Int64.to_int (Bytes.get_int64_le b 0) <> last.(p) then incr bad
              | Error _ -> Alcotest.fail "load failed"
          done;
          Task.terminate child
        done;
        (!bad, Counters.get (Kernel.stats kernel) Vm_types.s_pageouts))
  in
  Alcotest.(check bool) "the region really paged" true (pageouts > 0);
  check Alcotest.int "every load returns the last store" 0 bad

(* ---- copy-ahead follows the access pattern ---------------------------- *)

(* Scattered writes after a fork copy only what they write; a sequential
   sweep copies ahead in full windows. *)
let test_copy_ahead_sequential_only () =
  with_system (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let stats = Kernel.stats kernel in
      let pages = 64 in
      let region () =
        let a = Syscalls.vm_allocate task ~size:(pages * page) ~anywhere:true () in
        for i = 0 to pages - 1 do
          touch task (a + (i * page)) ~write:true
        done;
        a
      in
      let scattered = region () and sweep = region () in
      let _child = Task.create kernel ~parent:task ~name:"child" () in
      let cow () = Counters.get stats Vm_types.s_cow_faults in
      let batched () = Counters.get stats Vm_types.s_cow_batched in
      let cow0 = cow () and batched0 = batched () in
      List.iter (fun i -> touch task (scattered + (i * page)) ~write:true) [ 40; 3; 27; 11 ];
      check Alcotest.int "one COW fault per scattered write" 4 (cow () - cow0);
      check Alcotest.int "no copy-ahead on scattered writes" batched0 (batched ());
      let cow0 = cow () and batched0 = batched () in
      for i = 0 to pages - 1 do
        touch task (sweep + (i * page)) ~write:true
      done;
      check Alcotest.int "sequential sweep: 8 faults" 8 (cow () - cow0);
      check Alcotest.int "of 8 pages each" 56 (batched () - batched0))

(* ---- terminate-path collapse ------------------------------------------ *)

(* Two shadows share a backing object; when one shadow exits and drops
   the backing to a single reference, the collapse must fire from the
   surviving shadow (deallocate/terminate path, not a write fault). *)
let test_terminate_path_collapse () =
  let kctx = make_kctx () in
  let b = Vm_object.create_anonymous kctx ~size:page in
  ignore (add_page kctx b ~offset:0 'x');
  let s1 = Vm_object.create_shadow kctx ~backs:b ~offset:0 ~size:page in
  let s2 = Vm_object.create_shadow kctx ~backs:b ~offset:0 ~size:page in
  (* Drop the creator's reference: b is now held only by its shadows. *)
  Vm_object.deallocate kctx b;
  check Alcotest.int "no collapse while both shadows live" 0
    (Counters.get kctx.Kctx.stats Vm_types.s_collapses);
  check Alcotest.int "s1 still chained" 1 (Vm_object.chain_depth s1);
  (* s2 exits: its terminate drops b to one reference held by s1, and
     the collapse fires from the survivor. *)
  Vm_object.deallocate kctx s2;
  check Alcotest.int "collapse fired at sibling exit" 1 (Counters.get kctx.Kctx.stats Vm_types.s_collapses);
  check Alcotest.int "survivor flattened" 0 (Vm_object.chain_depth s1);
  Alcotest.(check bool) "backing gone" false b.Vm_types.obj_alive;
  match Vm_object.walk s1 ~offset:0 with
  | Vm_object.Resident (p, 0, _) ->
    Alcotest.(check bool) "page now owned by survivor" true (p.Vm_types.p_obj == s1);
    check Alcotest.char "data preserved" 'x' (frame_tag kctx p)
  | Resident _ | Paged _ | Nowhere -> Alcotest.fail "backing page did not move to the survivor"

(* ---- LRU object cache ------------------------------------------------- *)

let test_object_cache_lru () =
  let kctx = make_kctx () in
  kctx.Kctx.object_cache_cap <- 2;
  let mk tag =
    let port = Port.create kctx.Kctx.ctx ~home:0 ~drop:Message.discard () in
    let o = Vm_object.create_external kctx ~memory_object:port ~size:page in
    o.Vm_types.can_persist <- true;
    ignore (add_page kctx o ~offset:0 tag);
    (port, o)
  in
  let _p1, o1 = mk 'a' in
  let p2, o2 = mk 'b' in
  let _p3, o3 = mk 'c' in
  Engine.spawn kctx.Kctx.engine (fun () ->
      Vm_object.deallocate kctx o1;
      Vm_object.deallocate kctx o2;
      Vm_object.deallocate kctx o3);
  Engine.run kctx.Kctx.engine;
  (* Cap 2: caching o3 evicted the coldest entry (o1), terminating it. *)
  check Alcotest.int "one eviction" 1 (Counters.get kctx.Kctx.stats Vm_types.s_object_cache_evictions);
  Alcotest.(check bool) "coldest object terminated" false o1.Vm_types.obj_alive;
  Alcotest.(check bool) "o1 off the list" false (Vm_object.cache_is_member o1);
  Alcotest.(check bool) "o2 cached" true (Vm_object.cache_is_member o2);
  Alcotest.(check bool) "o3 cached" true (Vm_object.cache_is_member o3);
  check Alcotest.int "cache holds exactly the cap" 2 (Dlist.length kctx.Kctx.cached_objects);
  (* Revival pulls the object out of the list without an eviction. *)
  let again = Vm_object.create_external kctx ~memory_object:p2 ~size:page in
  Alcotest.(check bool) "revived same object" true (again == o2);
  Alcotest.(check bool) "revived object left the list" false
    (Vm_object.cache_is_member o2);
  check Alcotest.int "no extra eviction on revival" 1
    (Counters.get kctx.Kctx.stats Vm_types.s_object_cache_evictions);
  check Alcotest.int "one cached object remains" 1 (Dlist.length kctx.Kctx.cached_objects)

(* ---- qcheck: the copy engine is invisible to programs ----------------- *)

(* Random fork/write/send interleavings against a naive eager-copy
   oracle (each actor conceptually owns a private copy of the region;
   an OOL send snapshots the sender's bytes at send time; a sharer
   forked through [vm_inherit share] owns its parent's copy). *)

type op = Write | Send | Churn | Share

let run_scenario ~frames (nchildren, ops) =
  let config = { Kernel.default_config with Kernel.phys_frames = frames } in
  with_system ~config (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let verdict = ref true in
      let addr = Syscalls.vm_allocate task ~size:(8 * page) ~anywhere:true () in
      let wr t a v =
        match Syscalls.write_bytes t ~addr:a (Bytes.make 1 (Char.chr v)) () with
        | Ok () -> ()
        | Error _ -> verdict := false
      in
      for pg = 0 to 7 do
        wr task (addr + (pg * page)) 1
      done;
      let children =
        List.init nchildren (fun i ->
            Task.create kernel ~parent:task ~name:(Printf.sprintf "c%d" i) ())
      in
      let tasks = ref (Array.of_list (task :: children)) in
      let model_of = ref (Array.init (nchildren + 1) (fun _ -> Array.make 8 1)) in
      let receiver = Task.create kernel ~name:"rx" () in
      let recv_svc = Syscalls.port_allocate receiver ~backlog:4 () in
      let recv_port = Port_space.lookup_exn (Task.space receiver) recv_svc in
      List.iter
        (fun (actor, kind, pg, v) ->
          let actor = actor mod Array.length !tasks in
          let t = !tasks.(actor) in
          let model = !model_of.(actor) in
          match kind with
          | Write ->
            wr t (addr + (pg * page)) v;
            model.(pg) <- v
          | Share ->
            (* A sharer reads and writes the actor's own copy through a
               sharing map; later forks of either copy it again. *)
            Syscalls.vm_inherit t ~addr ~size:(8 * page) Inherit_share;
            let sharer = Task.create kernel ~parent:t ~name:"sharer" () in
            List.iter
              (fun t -> Syscalls.vm_inherit t ~addr ~size:(8 * page) Inherit_copy)
              [ t; sharer ];
            tasks := Array.append !tasks [| sharer |];
            model_of := Array.append !model_of [| model |]
          | Churn ->
            (* A transient grandchild dirties a few pages and exits; its
               writes die with it, but the exit exercises the
               terminate-path collapse and later steals. *)
            let c = Task.create kernel ~parent:t ~name:"churn" () in
            in_child c "churn.main" (fun () ->
                for q = pg to min 7 (pg + 3) do
                  wr c (addr + (q * page)) v
                done);
            Task.terminate c
          | Send ->
            (* Snapshot semantics: the receiver must see the sender's
               bytes as of the send, even though the sender overwrites
               a page before the message is consumed. *)
            let snap = Array.copy model in
            (match
               Syscalls.msg_send t
                 (Message.make ~dest:recv_port
                    [ Syscalls.ool_region t ~addr ~size:(8 * page) ])
             with
            | Ok () -> ()
            | Error _ -> verdict := false);
            wr t (addr + (pg * page)) v;
            model.(pg) <- v;
            in_child receiver "rx.main" (fun () ->
                match Syscalls.msg_receive receiver ~from:(`Port recv_svc) () with
                | Ok msg ->
                  List.iter
                    (fun (raddr, sz) ->
                      for q = 0 to (sz / page) - 1 do
                        (match
                           Syscalls.read_bytes receiver ~addr:(raddr + (q * page)) ~len:1 ()
                         with
                        | Ok b -> if Bytes.get_uint8 b 0 <> snap.(q) then verdict := false
                        | Error _ -> verdict := false)
                      done;
                      Syscalls.vm_deallocate receiver ~addr:raddr ~size:sz)
                    (Syscalls.map_ool receiver msg)
                | Error _ -> verdict := false))
        ops;
      (* Every task ends with exactly its oracle contents. *)
      Array.iteri
        (fun actor t ->
          for pg = 0 to 7 do
            match Syscalls.read_bytes t ~addr:(addr + (pg * page)) ~len:1 () with
            | Ok b -> if Bytes.get_uint8 b 0 <> !model_of.(actor).(pg) then verdict := false
            | Error _ -> verdict := false
          done)
        !tasks;
      (match Page_queues.check_invariants (Kernel.kctx kernel).Kctx.queues with
      | Ok () -> ()
      | Error _ -> verdict := false);
      (!verdict, Counters.get (Kernel.stats kernel) Vm_types.s_pageouts))

(* The frame budget comes from two regimes: resident (the default
   1024 frames) and oversubscribed, where the tasks' copies of the
   region outgrow memory and pageout binds shadows to the default
   pager. *)
let oversubscribed = QCheck2.Gen.int_range 16 24

let program =
  let open QCheck2.Gen in
  let op (a, k, pg, v) =
    let kind = if k <= 5 then Write else if k <= 7 then Send else if k = 8 then Churn else Share in
    (a, kind, pg, v)
  in
  pair (int_range 1 3)
    (list_size (int_range 1 16)
       (map op
          (tup4 (int_range 0 3) (* actor *)
             (int_range 0 9) (* op selector *)
             (int_range 0 7) (* page *)
             (int_range 2 255) (* value *))))

let print_program (frames, (nchildren, ops)) =
  let kind = function Write -> "write" | Send -> "send" | Churn -> "churn" | Share -> "share" in
  Printf.sprintf "frames=%d children=%d [%s]" frames nchildren
    (String.concat "; "
       (List.map (fun (a, k, pg, v) -> Printf.sprintf "%d %s p%d=%d" a (kind k) pg v) ops))

let copy_engine_prop =
  let open QCheck2 in
  Test.make ~name:"copy engine matches eager-copy oracle on random programs" ~count:50
    ~print:print_program
    Gen.(pair (oneof [ return 1024; oversubscribed ]) program)
    (fun (frames, prog) -> fst (run_scenario ~frames prog))

(* The oversubscribed regime really pages: one fixed draw. *)
let test_oversubscribed_pages () =
  let rand = Random.State.make [| 41 |] in
  let frames = QCheck2.Gen.generate1 ~rand oversubscribed in
  let ok, pageouts = run_scenario ~frames (QCheck2.Gen.generate1 ~rand program) in
  Alcotest.(check bool) "pages went out" true (pageouts > 0);
  Alcotest.(check bool) "and every task matches the oracle" true ok

let () =
  Alcotest.run "copy_engine"
    [
      ( "copy-engine",
        [
          Alcotest.test_case "chain depth bounded over generations" `Quick
            test_chain_depth_bounded;
          Alcotest.test_case "churn steals and clusters" `Quick test_steal_and_cluster;
          Alcotest.test_case "collapse keeps translations" `Quick
            test_collapse_keeps_translations;
          Alcotest.test_case "fork under paging keeps every write" `Quick
            test_fork_under_paging_keeps_writes;
          Alcotest.test_case "copy-ahead only on sequential faults" `Quick
            test_copy_ahead_sequential_only;
          Alcotest.test_case "terminate-path collapse" `Quick test_terminate_path_collapse;
          Alcotest.test_case "object cache LRU eviction" `Quick test_object_cache_lru;
          Alcotest.test_case "a copy keeps other maps' translations" `Quick
            test_copy_keeps_other_translations;
          Alcotest.test_case "a page the sibling copied is stolen" `Quick
            test_steal_page_sibling_copied;
          Alcotest.test_case "a sharer sees the writer's copy" `Quick
            test_share_map_sharer_sees_copy;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest copy_engine_prop;
          Alcotest.test_case "oversubscribed regime pages" `Quick test_oversubscribed_pages;
        ] );
    ]
