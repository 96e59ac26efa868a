(* Structural tests for the two-level address maps (§5.1) and memory
   object machinery — no external pagers here, just anonymous memory
   and the map algebra. *)

module Engine = Mach_sim.Engine
module Net = Mach_hw.Net
module Machine = Mach_hw.Machine
module Phys_mem = Mach_hw.Phys_mem
module Pmap = Mach_hw.Pmap
module Prot = Mach_hw.Prot
module Context = Mach_ipc.Context
module Kctx = Mach_vm.Kctx
module Vm_map = Mach_vm.Vm_map
module Vm_types = Mach_vm.Vm_types
module Vm_object = Mach_vm.Vm_object

let check = Alcotest.check
let page = 4096

let make_kctx ?(frames = 256) () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let ctx = Context.create eng net in
  let mem = Phys_mem.create ~frames ~page_size:page in
  let kctx = Kctx.create eng ctx ~host:0 ~params:Machine.uniprocessor ~mem () in
  kctx

let make_map kctx = Vm_map.create kctx ~pmap:(Some (Pmap.create kctx.Kctx.mem))

let invariant_ok map =
  match Vm_map.check_invariants map with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant violated: %s" e

let test_allocate_anywhere () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a1 = Vm_map.allocate map ~size:(4 * page) ~anywhere:true () in
  let a2 = Vm_map.allocate map ~size:(2 * page) ~anywhere:true () in
  Alcotest.(check bool) "non-overlapping" true (a2 >= a1 + (4 * page) || a1 >= a2 + (2 * page));
  check Alcotest.int "total size" (6 * page) (Vm_map.size map);
  invariant_ok map

let test_allocate_fixed () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a = Vm_map.allocate map ~addr:0x40000 ~size:page ~anywhere:false () in
  check Alcotest.int "exact placement" 0x40000 a;
  Alcotest.check_raises "collision" Vm_map.No_space (fun () ->
      ignore (Vm_map.allocate map ~addr:0x40000 ~size:page ~anywhere:false ()));
  invariant_ok map

let test_allocate_rounds_size () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  ignore (Vm_map.allocate map ~size:100 ~anywhere:true ());
  check Alcotest.int "rounded to a page" page (Vm_map.size map);
  invariant_ok map

let test_deallocate_whole () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a = Vm_map.allocate map ~size:(4 * page) ~anywhere:true () in
  Vm_map.deallocate map ~addr:a ~size:(4 * page);
  check Alcotest.int "empty" 0 (Vm_map.size map);
  check Alcotest.int "no entries" 0 (List.length (Vm_map.entries map));
  invariant_ok map

let test_deallocate_middle_clips () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a = Vm_map.allocate map ~size:(6 * page) ~anywhere:true () in
  (* Punch a 2-page hole in the middle. *)
  Vm_map.deallocate map ~addr:(a + (2 * page)) ~size:(2 * page);
  check Alcotest.int "size shrunk" (4 * page) (Vm_map.size map);
  check Alcotest.int "two entries" 2 (List.length (Vm_map.entries map));
  invariant_ok map;
  (* The hole is reusable. *)
  let b = Vm_map.allocate map ~addr:(a + (2 * page)) ~size:(2 * page) ~anywhere:false () in
  check Alcotest.int "hole reused" (a + (2 * page)) b;
  invariant_ok map

let test_protect () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a = Vm_map.allocate map ~size:(4 * page) ~anywhere:true () in
  Vm_map.protect map ~addr:(a + page) ~size:page ~set_max:false Prot.read;
  (* The middle page entry is clipped out with its own protection. *)
  let protections =
    List.map (fun e -> Prot.to_string e.Vm_map.protection) (Vm_map.entries map)
  in
  check Alcotest.(list string) "clipped protections" [ "rw-"; "r--"; "rw-" ] protections;
  invariant_ok map

let test_protect_max_caps_current () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a = Vm_map.allocate map ~size:page ~anywhere:true () in
  Vm_map.protect map ~addr:a ~size:page ~set_max:true Prot.read;
  (match Vm_map.entries map with
  | [ e ] ->
    Alcotest.(check bool) "current reduced" true (Prot.equal e.Vm_map.protection Prot.read)
  | _ -> Alcotest.fail "expected one entry");
  (* Raising above max is rejected. *)
  Alcotest.check_raises "above max" (Vm_map.Bad_address a) (fun () ->
      Vm_map.protect map ~addr:a ~size:page ~set_max:false Prot.rw);
  invariant_ok map

let test_protect_hole_rejected () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a = Vm_map.allocate map ~size:page ~anywhere:true () in
  let hole_start = a + page in
  Alcotest.check_raises "hole detected" (Vm_map.Bad_address hole_start) (fun () ->
      Vm_map.protect map ~addr:a ~size:(2 * page) ~set_max:false Prot.read)

let test_inheritance_attr () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a = Vm_map.allocate map ~size:(2 * page) ~anywhere:true () in
  Vm_map.set_inheritance map ~addr:a ~size:page Vm_types.Inherit_share;
  let inh = List.map (fun e -> e.Vm_map.inheritance) (Vm_map.entries map) in
  Alcotest.(check bool) "first shared, second copy" true
    (inh = [ Vm_types.Inherit_share; Vm_types.Inherit_copy ]);
  invariant_ok map

let test_regions_report () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a = Vm_map.allocate map ~size:(2 * page) ~anywhere:true () in
  match Vm_map.regions map with
  | [ r ] ->
    check Alcotest.int "start" a r.Vm_map.ri_start;
    check Alcotest.int "size" (2 * page) r.Vm_map.ri_size;
    Alcotest.(check bool) "not shared" false r.Vm_map.ri_shared;
    Alcotest.(check bool) "has object" true (r.Vm_map.ri_object_id <> None)
  | _ -> Alcotest.fail "expected one region"

let test_lookup_protection () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a = Vm_map.allocate map ~size:page ~anywhere:true () in
  Vm_map.protect map ~addr:a ~size:page ~set_max:false Prot.read;
  (match Vm_map.lookup map ~addr:a ~write:false with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "read allowed");
  (match Vm_map.lookup map ~addr:a ~write:true with
  | Error `Protection -> ()
  | Ok _ | Error `Invalid_address -> Alcotest.fail "write must be denied");
  match Vm_map.lookup map ~addr:0xdead000 ~write:false with
  | Error `Invalid_address -> ()
  | Ok _ | Error `Protection -> Alcotest.fail "unmapped must be invalid"

let test_fork_share_promotes_to_share_map () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a = Vm_map.allocate map ~size:page ~anywhere:true () in
  Vm_map.set_inheritance map ~addr:a ~size:page Vm_types.Inherit_share;
  let child = Vm_map.fork map ~child_pmap:(Some (Pmap.create kctx.Kctx.mem)) in
  let shared_regions m = List.filter (fun r -> r.Vm_map.ri_shared) (Vm_map.regions m) in
  check Alcotest.int "parent promoted" 1 (List.length (shared_regions map));
  check Alcotest.int "child shares" 1 (List.length (shared_regions child));
  invariant_ok map;
  invariant_ok child

let test_fork_none_leaves_hole () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a = Vm_map.allocate map ~size:page ~anywhere:true () in
  Vm_map.set_inheritance map ~addr:a ~size:page Vm_types.Inherit_none;
  let child = Vm_map.fork map ~child_pmap:(Some (Pmap.create kctx.Kctx.mem)) in
  check Alcotest.int "child empty" 0 (Vm_map.size child)

let test_fork_copy_sets_needs_copy () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  ignore (Vm_map.allocate map ~size:page ~anywhere:true ());
  let child = Vm_map.fork map ~child_pmap:(Some (Pmap.create kctx.Kctx.mem)) in
  let needs_copy m =
    List.for_all
      (fun e ->
        match e.Vm_map.backing with
        | Vm_map.Direct d -> d.Vm_map.needs_copy
        | Vm_map.Shared _ -> false)
      (Vm_map.entries m)
  in
  Alcotest.(check bool) "parent COW-pending" true (needs_copy map);
  Alcotest.(check bool) "child COW-pending" true (needs_copy child);
  (* Both sides reference the same frozen object. *)
  match (Vm_map.entries map, Vm_map.entries child) with
  | [ pe ], [ ce ] -> (
    match (pe.Vm_map.backing, ce.Vm_map.backing) with
    | Vm_map.Direct pd, Vm_map.Direct cd ->
      Alcotest.(check bool) "same object" true (pd.Vm_map.d_obj == cd.Vm_map.d_obj);
      check Alcotest.int "two references" 2 pd.Vm_map.d_obj.Vm_types.ref_count
    | _ -> Alcotest.fail "expected direct backings")
  | _ -> Alcotest.fail "expected single entries"

(* copyin charges simulated CPU time, so it must run on an engine fiber. *)
let in_fiber kctx f =
  let result = ref None in
  Engine.spawn kctx.Kctx.engine (fun () -> result := Some (f ()));
  Engine.run kctx.Kctx.engine;
  Option.get !result

let test_copyin_copyout_cow () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let src = Vm_map.allocate map ~size:(2 * page) ~anywhere:true () in
  let dst =
    in_fiber kctx (fun () ->
        Vm_map.copyout map (Vm_map.copyin map ~addr:src ~size:(2 * page)) ())
  in
  Alcotest.(check bool) "new address" true (dst <> src);
  check Alcotest.int "doubled size" (8 * page / 2) (Vm_map.size map);
  invariant_ok map

let test_object_refcount_on_deallocate () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  let a = Vm_map.allocate map ~size:(2 * page) ~anywhere:true () in
  let obj =
    match Vm_map.entries map with
    | [ { Vm_map.backing = Vm_map.Direct d; _ } ] -> d.Vm_map.d_obj
    | _ -> Alcotest.fail "expected one direct entry"
  in
  check Alcotest.int "one ref" 1 obj.Vm_types.ref_count;
  (* Clipping in half splits the reference. *)
  Vm_map.deallocate map ~addr:a ~size:page;
  check Alcotest.int "split then dropped" 1 obj.Vm_types.ref_count;
  Alcotest.(check bool) "still alive" true obj.Vm_types.obj_alive;
  Vm_map.deallocate map ~addr:(a + page) ~size:page;
  check Alcotest.int "no refs" 0 obj.Vm_types.ref_count;
  Alcotest.(check bool) "terminated" false obj.Vm_types.obj_alive

let test_destroy_releases_everything () =
  let kctx = make_kctx () in
  let map = make_map kctx in
  for _ = 1 to 5 do
    ignore (Vm_map.allocate map ~size:page ~anywhere:true ())
  done;
  Vm_map.destroy map;
  check Alcotest.int "empty" 0 (List.length (Vm_map.entries map))

(* qcheck: random structural operation sequences keep the invariants. *)
let map_invariant_prop =
  let open QCheck2 in
  let op_gen =
    Gen.(
      oneof
        [
          map2 (fun a s -> `Alloc (a, s)) (int_range 0 64) (int_range 1 8);
          map2 (fun a s -> `Dealloc (a, s)) (int_range 0 64) (int_range 1 8);
          map2 (fun a s -> `Protect (a, s)) (int_range 0 64) (int_range 1 8);
          pure `Fork;
          map2 (fun a s -> `Copy (a, s)) (int_range 0 64) (int_range 1 4);
        ])
  in
  Test.make ~name:"map invariants hold under random op sequences" ~count:100
    Gen.(list_size (int_range 1 25) op_gen)
    (fun ops ->
      let kctx = make_kctx ~frames:64 () in
      let map = make_map kctx in
      let ok = ref true in
      let verify m = match Vm_map.check_invariants m with Ok () -> () | Error _ -> ok := false in
      in_fiber kctx @@ fun () ->
      List.iter
        (fun op ->
          (match op with
          | `Alloc (a, s) -> (
            try ignore (Vm_map.allocate map ~addr:(a * page) ~size:(s * page) ~anywhere:true ())
            with Vm_map.No_space -> ())
          | `Dealloc (a, s) -> Vm_map.deallocate map ~addr:(a * page) ~size:(s * page)
          | `Protect (a, s) -> (
            try Vm_map.protect map ~addr:(a * page) ~size:(s * page) ~set_max:false Prot.read
            with Vm_map.Bad_address _ -> ())
          | `Fork ->
            let child = Vm_map.fork map ~child_pmap:None in
            verify child;
            Vm_map.destroy child
          | `Copy (a, s) -> (
            match Vm_map.copyin map ~addr:(a * page) ~size:(s * page) with
            | exception Vm_map.Bad_address _ -> ()
            | copy -> (
              try ignore (Vm_map.copyout map copy ())
              with Vm_map.No_space -> Vm_map.copy_discard copy)));
          verify map)
        ops;
      !ok)

let () =
  Alcotest.run "vm_map"
    [
      ( "allocate",
        [
          Alcotest.test_case "anywhere" `Quick test_allocate_anywhere;
          Alcotest.test_case "fixed address" `Quick test_allocate_fixed;
          Alcotest.test_case "size rounding" `Quick test_allocate_rounds_size;
        ] );
      ( "deallocate",
        [
          Alcotest.test_case "whole region" `Quick test_deallocate_whole;
          Alcotest.test_case "middle clips" `Quick test_deallocate_middle_clips;
          Alcotest.test_case "destroy" `Quick test_destroy_releases_everything;
          Alcotest.test_case "object refcounts" `Quick test_object_refcount_on_deallocate;
        ] );
      ( "attributes",
        [
          Alcotest.test_case "protect clips" `Quick test_protect;
          Alcotest.test_case "set_max caps current" `Quick test_protect_max_caps_current;
          Alcotest.test_case "protect across hole rejected" `Quick test_protect_hole_rejected;
          Alcotest.test_case "inheritance" `Quick test_inheritance_attr;
          Alcotest.test_case "regions report" `Quick test_regions_report;
        ] );
      ( "lookup-and-fork",
        [
          Alcotest.test_case "lookup protection" `Quick test_lookup_protection;
          Alcotest.test_case "fork share promotes" `Quick test_fork_share_promotes_to_share_map;
          Alcotest.test_case "fork none leaves hole" `Quick test_fork_none_leaves_hole;
          Alcotest.test_case "fork copy sets needs_copy" `Quick test_fork_copy_sets_needs_copy;
          Alcotest.test_case "copyin + copyout" `Quick test_copyin_copyout_cow;
          QCheck_alcotest.to_alcotest map_invariant_prop;
        ] );
    ]
