(* The external memory management wire protocol (Tables 3-4/3-5/3-6):
   encode/decode roundtrips, malformed input handling, and the default
   pager serving kernel-created objects. *)

module Engine = Mach_sim.Engine
module Net = Mach_hw.Net
module Prot = Mach_hw.Prot
module Context = Mach_ipc.Context
module Port = Mach_ipc.Port
module Message = Mach_ipc.Message
module Pager_iface = Mach_vm.Pager_iface


let make_ctx () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  Context.create eng net

let test_k2m_roundtrips () =
  let ctx = make_ctx () in
  let mo = Port.create ctx ~home:0 ~drop:Message.discard () in
  let rq = Port.create ctx ~home:0 ~drop:Message.discard () in
  let nm = Port.create ctx ~home:0 ~drop:Message.discard () in
  let calls =
    [
      Pager_iface.Init { memory_object = mo; request = rq; name = nm };
      Pager_iface.Data_request
        { memory_object = mo; request = rq; offset = 8192; length = 4096; desired_access = Prot.rw };
      Pager_iface.Data_write
        { memory_object = mo; offset = 12288; data = Bytes.of_string "pagedata"; write_id = 77 };
      Pager_iface.Data_unlock
        { memory_object = mo; request = rq; offset = 0; length = 4096; desired_access = Prot.write };
      Pager_iface.Create { new_memory_object = mo; request = rq; name = nm; size = 65536 };
      Pager_iface.Lock_completed { memory_object = mo; offset = 4096; length = 8192 };
    ]
  in
  List.iter
    (fun call ->
      let dest = match call with Pager_iface.Create _ -> nm | _ -> mo in
      let msg = Pager_iface.encode_k2m ~reply:None call ~dest in
      Alcotest.(check bool) "recognised" true (Pager_iface.is_pager_msg msg);
      let decoded = Pager_iface.decode_k2m msg in
      let matches =
        match (call, decoded) with
        | Pager_iface.Init a, Pager_iface.Init b ->
          Port.equal a.request b.request && Port.equal a.name b.name
        | Pager_iface.Data_request a, Pager_iface.Data_request b ->
          a.offset = b.offset && a.length = b.length
          && Prot.equal a.desired_access b.desired_access
          && Port.equal a.request b.request
        | Pager_iface.Data_write a, Pager_iface.Data_write b ->
          a.offset = b.offset && a.data = b.data && a.write_id = b.write_id
        | Pager_iface.Data_unlock a, Pager_iface.Data_unlock b ->
          a.offset = b.offset && a.length = b.length
          && Prot.equal a.desired_access b.desired_access
        | Pager_iface.Create a, Pager_iface.Create b ->
          Port.equal a.new_memory_object b.new_memory_object && a.size = b.size
        | Pager_iface.Lock_completed a, Pager_iface.Lock_completed b ->
          a.offset = b.offset && a.length = b.length
        | _ -> false
      in
      Alcotest.(check bool) "roundtrip" true matches)
    calls

let test_m2k_roundtrips () =
  let ctx = make_ctx () in
  let rq = Port.create ctx ~home:0 ~drop:Message.discard () in
  let calls =
    [
      Pager_iface.Data_provided
        { offset = 4096; data = Bytes.of_string "xyz"; lock_value = Prot.write };
      Pager_iface.Data_lock { offset = 0; length = 8192; lock_value = Prot.none };
      Pager_iface.Flush_request { offset = 4096; length = 4096 };
      Pager_iface.Clean_request { offset = 0; length = 16384 };
      Pager_iface.Cache { may_cache = true };
      Pager_iface.Data_unavailable { offset = 8192; size = 4096 };
      Pager_iface.Release_write { write_id = 42 };
    ]
  in
  List.iter
    (fun call ->
      let msg = Pager_iface.encode_m2k call ~request:rq in
      Alcotest.(check bool) "recognised" true (Pager_iface.is_pager_msg msg);
      let decoded = Pager_iface.decode_m2k msg in
      Alcotest.(check bool) "roundtrip" true
        (match (call, decoded) with
        | Pager_iface.Data_provided a, Pager_iface.Data_provided b ->
          a.offset = b.offset && a.data = b.data && Prot.equal a.lock_value b.lock_value
        | Pager_iface.Data_lock a, Pager_iface.Data_lock b ->
          a.offset = b.offset && a.length = b.length && Prot.equal a.lock_value b.lock_value
        | Pager_iface.Flush_request a, Pager_iface.Flush_request b ->
          a.offset = b.offset && a.length = b.length
        | Pager_iface.Clean_request a, Pager_iface.Clean_request b ->
          a.offset = b.offset && a.length = b.length
        | Pager_iface.Cache a, Pager_iface.Cache b -> a.may_cache = b.may_cache
        | Pager_iface.Data_unavailable a, Pager_iface.Data_unavailable b ->
          a.offset = b.offset && a.size = b.size
        | Pager_iface.Release_write a, Pager_iface.Release_write b -> a.write_id = b.write_id
        | _ -> false))
    calls

let test_malformed_rejected () =
  let ctx = make_ctx () in
  let p = Port.create ctx ~home:0 ~drop:Message.discard () in
  (* Unknown id. *)
  let bogus = Message.make ~msg_id:2199 ~dest:p [ Message.Data (Bytes.create 4) ] in
  Alcotest.check_raises "unknown k2m id"
    (Pager_iface.Malformed "unknown kernel-to-manager id 2199") (fun () ->
      ignore (Pager_iface.decode_k2m bogus));
  (* Data_request without capabilities. *)
  let truncated = Message.make ~msg_id:2101 ~dest:p [ Message.Data (Bytes.create 2) ] in
  (match Pager_iface.decode_k2m truncated with
  | exception Pager_iface.Malformed _ -> ()
  | _ -> Alcotest.fail "expected malformed");
  (* Non-pager ids are not claimed. *)
  let other = Message.make ~msg_id:3001 ~dest:p [ Message.Data (Bytes.create 1) ] in
  Alcotest.(check bool) "not a pager msg" false (Pager_iface.is_pager_msg other)

let m2k_prop =
  let open QCheck2 in
  Test.make ~name:"manager-to-kernel calls roundtrip" ~count:200
    Gen.(
      oneof
        [
          map3
            (fun off data lock ->
              `Provided (off land 0xfffff000, Bytes.of_string data, Prot.of_int (lock land 7)))
            small_nat string_small small_nat;
          map2 (fun off len -> `Lock (off land 0xfffff000, (len land 0xffff) + 1)) small_nat small_nat;
          map (fun b -> `Cache b) bool;
          map (fun id -> `Release id) small_nat;
        ])
    (fun call ->
      let eng = Engine.create () in
      let net = Net.create eng () in
      let ctx = Context.create eng net in
      let rq = Port.create ctx ~home:0 ~drop:Message.discard () in
      let m =
        match call with
        | `Provided (offset, data, lock_value) ->
          Pager_iface.Data_provided { offset; data; lock_value }
        | `Lock (offset, length) -> Pager_iface.Data_lock { offset; length; lock_value = Prot.rw }
        | `Cache may_cache -> Pager_iface.Cache { may_cache }
        | `Release write_id -> Pager_iface.Release_write { write_id }
      in
      let decoded = Pager_iface.decode_m2k (Pager_iface.encode_m2k m ~request:rq) in
      match (m, decoded) with
      | Pager_iface.Data_provided a, Pager_iface.Data_provided b ->
        a.offset = b.offset && a.data = b.data && Prot.equal a.lock_value b.lock_value
      | Pager_iface.Data_lock a, Pager_iface.Data_lock b ->
        a.offset = b.offset && a.length = b.length
      | Pager_iface.Cache a, Pager_iface.Cache b -> a.may_cache = b.may_cache
      | Pager_iface.Release_write a, Pager_iface.Release_write b -> a.write_id = b.write_id
      | _ -> false)

(* Default pager black-box behaviour through a real system. *)
open Mach

let test_default_pager_unavailable_then_stored () =
  let config = { Kernel.default_config with Kernel.phys_frames = 64 } in
  let sys = Kernel.create_system ~config () in
  let result = ref None in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let task = Task.create sys.Kernel.kernel ~name:"app" () in
      ignore
        (Thread.spawn task ~name:"app.main" (fun () ->
             (* Force enough pressure that pages go to the default pager
                and come back. *)
             let npages = 120 in
             let page = 4096 in
             let addr = Syscalls.vm_allocate task ~size:(npages * page) ~anywhere:true () in
             for i = 0 to npages - 1 do
               ignore
                 (Syscalls.write_bytes task ~addr:(addr + (i * page))
                    (Bytes.of_string (Printf.sprintf "%08d" i))
                    ())
             done;
             let ok = ref true in
             for i = 0 to npages - 1 do
               match Syscalls.read_bytes task ~addr:(addr + (i * page)) ~len:8 () with
               | Ok b -> if Bytes.to_string b <> Printf.sprintf "%08d" i then ok := false
               | Error _ -> ok := false
             done;
             result := Some !ok)));
  Engine.run sys.Kernel.engine;
  match !result with
  | Some true -> ()
  | Some false -> Alcotest.fail "data corrupted through the default pager"
  | None -> Alcotest.fail "deadlocked"

let () =
  Alcotest.run "pager_protocol"
    [
      ( "wire-format",
        [
          Alcotest.test_case "kernel-to-manager roundtrips" `Quick test_k2m_roundtrips;
          Alcotest.test_case "manager-to-kernel roundtrips" `Quick test_m2k_roundtrips;
          Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
          QCheck_alcotest.to_alcotest m2k_prop;
        ] );
      ( "default-pager",
        [
          Alcotest.test_case "data integrity through paging file" `Quick
            test_default_pager_unavailable_then_stored;
        ] );
    ]
