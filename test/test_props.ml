(* System-level property tests: copy-on-write isolation under random
   interleavings, shared-memory coherence under random schedules, and
   WAL recovery at random crash points. *)

open Mach
module Rng = Mach_util.Rng
module Netmem = Mach_pagers.Netmem
module Camelot = Mach_pagers.Camelot

let page = 4096

(* --- COW isolation: parent and a set of forked children performing a
   random interleaving of writes must end with exactly the bytes each
   one wrote (plus inherited data where untouched). --- *)

let cow_isolation_prop =
  let open QCheck2 in
  let gen =
    Gen.(
      pair (int_range 1 3) (* children *)
        (list_size (int_range 1 30)
           (tup3 (int_range 0 3) (* actor: 0 = parent *)
              (int_range 0 7) (* page *)
              (int_range 0 255) (* value *))))
  in
  Test.make ~name:"fork COW isolation under random write interleavings" ~count:25 gen
    (fun (nchildren, writes) ->
      let sys = Kernel.create_system () in
      let verdict = ref true in
      Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
          let parent = Task.create sys.Kernel.kernel ~name:"p" () in
          let done_ = Ivar.create () in
          ignore
            (Thread.spawn parent ~name:"p.main" (fun () ->
                 let addr = Syscalls.vm_allocate parent ~size:(8 * page) ~anywhere:true () in
                 (* Seed every page with a known value. *)
                 for pg = 0 to 7 do
                   ignore
                     (Syscalls.write_bytes parent ~addr:(addr + (pg * page)) (Bytes.make 1 '\001') ())
                 done;
                 let children =
                   List.init nchildren (fun i ->
                       Task.create sys.Kernel.kernel ~parent ~name:(Printf.sprintf "c%d" i) ())
                 in
                 let tasks = Array.of_list (parent :: children) in
                 (* A model of each task's expected memory. *)
                 let model = Array.init (nchildren + 1) (fun _ -> Array.make 8 1) in
                 List.iter
                   (fun (actor, pg, v) ->
                     let actor = actor mod (nchildren + 1) in
                     let t = tasks.(actor) in
                     (match
                        Syscalls.write_bytes t ~addr:(addr + (pg * page))
                          (Bytes.make 1 (Char.chr v)) ()
                      with
                     | Ok () -> ()
                     | Error _ -> verdict := false);
                     model.(actor).(pg) <- v)
                   writes;
                 (* Verify every task sees exactly its model. *)
                 Array.iteri
                   (fun actor t ->
                     for pg = 0 to 7 do
                       match Syscalls.read_bytes t ~addr:(addr + (pg * page)) ~len:1 () with
                       | Ok b ->
                         if Bytes.get_uint8 b 0 <> model.(actor).(pg) then verdict := false
                       | Error _ -> verdict := false
                     done)
                   tasks;
                 Ivar.fill done_ ()));
          ignore done_);
      Engine.run sys.Kernel.engine;
      !verdict)

(* --- Netmem coherence: random sequential reads and writes from three
   hosts, checked against a flat model of the region (operations are
   sequential, so every read must see the last write to its page).
   After every step the single-writer invariant must hold in the
   hardware: a page some host maps writable is mapped by no other
   host. --- *)

let netmem_coherence_prop =
  let open QCheck2 in
  let hosts = 3 and pages = 4 in
  let gen =
    Gen.(
      list_size (int_range 1 30)
        (tup4 (int_range 0 (hosts - 1)) (int_range 0 (pages - 1)) bool (int_range 1 255)))
  in
  Test.make ~name:"netmem sequential coherence across hosts" ~count:20 gen (fun steps ->
      let cluster = Kernel.create_cluster ~hosts () in
      let verdict = ref true in
      let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; verdict := false) fmt in
      let policy = Fault.Abort_after 30_000_000.0 in
      Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
          let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
          let region = Netmem.create_region nm ~size:(pages * page) in
          let tasks =
            Array.init hosts (fun h ->
                Task.create cluster.Kernel.c_kernels.(h) ~name:(Printf.sprintf "t%d" h) ())
          in
          ignore
            (Thread.spawn tasks.(0) ~name:"steps" (fun () ->
                 let bases =
                   Array.map
                     (fun t ->
                       Syscalls.vm_allocate_with_pager t ~size:(pages * page) ~anywhere:true
                         ~memory_object:region ~offset:0 ())
                     tasks
                 in
                 (* Each host's hardware mapping of page [pg]. *)
                 let mapping h pg =
                   match Vm_map.pmap (Task.map tasks.(h)) with
                   | None -> None
                   | Some pmap -> Option.map snd (Pmap.lookup pmap ~vpn:((bases.(h) / page) + pg))
                 in
                 let single_writer step =
                   for pg = 0 to pages - 1 do
                     let prots = Array.init hosts (fun h -> mapping h pg) in
                     Array.iteri
                       (fun w prot ->
                         match prot with
                         | Some p when Prot.can_write p ->
                           Array.iteri
                             (fun h other ->
                               if h <> w && other <> None then
                                 fail "step %d: host %d maps page %d writable, host %d maps it too"
                                   step w pg h)
                             prots
                         | Some _ | None -> ())
                       prots
                   done
                 in
                 let model = Array.make pages 0 in
                 List.iteri
                   (fun step (h, pg, write, v) ->
                     let addr = bases.(h) + (pg * page) in
                     (if write then
                        match Syscalls.write_bytes tasks.(h) ~addr (Bytes.make 1 (Char.chr v)) ~policy () with
                        | Ok () -> model.(pg) <- v
                        | Error _ -> fail "step %d: host %d's write failed" step h
                      else
                        match Syscalls.read_bytes tasks.(h) ~addr ~len:1 ~policy () with
                        | Ok b ->
                          if Bytes.get_uint8 b 0 <> model.(pg) then
                            fail "step %d: host %d read %d from page %d, expected %d" step h
                              (Bytes.get_uint8 b 0) pg model.(pg)
                        | Error _ -> fail "step %d: host %d's read failed" step h);
                     single_writer step)
                   steps)));
      Engine.run cluster.Kernel.c_engine;
      !verdict)

(* --- Hinted map lookup: Vm_map keeps a sorted entry index plus a
   last-hit hint; under random allocate/deallocate/protect mutations
   every lookup must agree with a naive linear scan over the entry
   list, and the map invariants must hold after every step. --- *)

let naive_lookup map ~addr ~write =
  let needed = if write then Prot.write else Prot.read in
  let find_covering es a =
    List.find_opt (fun e -> a >= e.Vm_map.va_start && a < e.Vm_map.va_end) es
  in
  let rec direct_of e a =
    match e.Vm_map.backing with
    | Vm_map.Direct d -> Some (d.Vm_map.d_obj, d.Vm_map.d_offset + (a - e.Vm_map.va_start))
    | Vm_map.Shared { share_map; sh_offset } -> (
      let sh = sh_offset + (a - e.Vm_map.va_start) in
      match find_covering (Vm_map.entries share_map) sh with
      | Some se -> direct_of se sh
      | None -> None)
  in
  match find_covering (Vm_map.entries map) addr with
  | None -> Error `Invalid_address
  | Some e ->
    if not (Mach_hw.Prot.subset needed e.Vm_map.protection) then Error `Protection
    else (
      match direct_of e addr with
      | Some (obj, off) -> Ok (obj.Vm_types.obj_id, page * (off / page))
      | None -> Error `Invalid_address)

let hinted_lookup_prop =
  let open QCheck2 in
  let gen =
    Gen.(
      list_size (int_range 1 40)
        (tup4 (int_range 0 4) (* op kind *)
           (int_range 0 60) (* page slot *)
           (int_range 1 6) (* span in pages *)
           (int_range 0 63) (* extra probe slot *)))
  in
  Test.make ~name:"hinted Vm_map.lookup agrees with linear scan under mutation" ~count:40 gen
    (fun ops ->
      let sys = Kernel.create_system () in
      let verdict = ref true in
      Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
          let task = Task.create sys.Kernel.kernel ~name:"mapper" () in
          let map = Task.map task in
          let agree addr write =
            let expected = naive_lookup map ~addr ~write in
            let actual =
              match Vm_map.lookup map ~addr ~write with
              | Ok lk -> Ok (lk.Vm_map.lk_obj.Vm_types.obj_id, lk.Vm_map.lk_offset)
              | Error _ as e -> e
            in
            let same =
              match (expected, actual) with
              | Ok a, Ok b -> a = b
              | Error `Invalid_address, Error `Invalid_address -> true
              | Error `Protection, Error `Protection -> true
              | _ -> false
            in
            if not same then verdict := false
          in
          List.iter
            (fun (kind, slot, span, probe) ->
              let a = (slot + 1) * page in
              let size = span * page in
              (match kind with
              | 0 | 3 -> (
                try ignore (Vm_map.allocate map ~addr:a ~size ~anywhere:false ())
                with Vm_map.No_space -> ())
              | 1 -> Vm_map.deallocate map ~addr:a ~size
              | 2 -> (
                try Vm_map.protect map ~addr:a ~size ~set_max:false Prot.read
                with Vm_map.Bad_address _ -> ())
              | _ -> (
                try Vm_map.protect map ~addr:a ~size ~set_max:false Prot.rw
                with Vm_map.Bad_address _ -> ()));
              (match Vm_map.check_invariants map with
              | Ok () -> ()
              | Error msg ->
                Printf.eprintf "invariant violated: %s\n" msg;
                verdict := false);
              (* Probe around the mutation and at an unrelated slot; the
                 repeated nearby probes exercise the hint, the far one
                 forces misses/revalidation. *)
              List.iter
                (fun addr ->
                  agree addr false;
                  agree addr true)
                [ a; a + 123; a + size - 1; (probe * page) + 17 ])
            ops);
      Engine.run sys.Kernel.engine;
      !verdict)

(* --- Camelot: commit a random number of transactions, leave one
   uncommitted, crash, recover — committed values survive exactly. --- *)

let camelot_recovery_prop =
  let open QCheck2 in
  let gen = Gen.(list_size (int_range 1 6) (pair (int_range 0 15) (int_range 1 255))) in
  Test.make ~name:"camelot recovery preserves exactly committed state" ~count:15 gen
    (fun committed_writes ->
      let scratch = Engine.create () in
      let log_disk = Disk.create scratch ~name:"plog" ~blocks:256 ~block_size:page () in
      let data_disk = Disk.create scratch ~name:"pdata" ~blocks:256 ~block_size:page () in
      let verdict = ref true in
      (* Epoch 1: committed writes + one uncommitted poison write. *)
      let sys = Kernel.create_system () in
      let ld = Disk.reattach log_disk sys.Kernel.engine in
      let dd = Disk.reattach data_disk sys.Kernel.engine in
      Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
          let cam = Camelot.start sys.Kernel.kernel ~log_disk:ld ~data_disk:dd ~format:true () in
          let client = Task.create sys.Kernel.kernel ~name:"c" () in
          ignore
            (Thread.spawn client ~name:"c.main" (fun () ->
                 let server = Camelot.service_port cam in
                 match Camelot.Client.map_segment client ~server "s" ~size:page with
                 | Error _ -> verdict := false
                 | Ok base ->
                   List.iter
                     (fun (slot, v) ->
                       match Camelot.Client.begin_txn client ~server with
                       | Error _ -> verdict := false
                       | Ok tid -> (
                         (match
                            Camelot.Client.store client ~server tid ~segment:"s" ~base
                              ~offset:(slot * 16) (Bytes.make 1 (Char.chr v))
                          with
                         | Ok () -> ()
                         | Error _ -> verdict := false);
                         match Camelot.Client.commit client ~server tid with
                         | Ok () -> ()
                         | Error _ -> verdict := false))
                     committed_writes;
                   (* Uncommitted poison at slot 63. *)
                   (match Camelot.Client.begin_txn client ~server with
                   | Ok tid ->
                     ignore
                       (Camelot.Client.store client ~server tid ~segment:"s" ~base
                          ~offset:(63 * 16) (Bytes.make 1 '\255'))
                   | Error _ -> verdict := false))));
      Engine.run sys.Kernel.engine;
      (* Crash; epoch 2 recovers. *)
      let sys2 = Kernel.create_system () in
      let ld2 = Disk.reattach log_disk sys2.Kernel.engine in
      let dd2 = Disk.reattach data_disk sys2.Kernel.engine in
      Engine.spawn sys2.Kernel.engine ~name:"setup" (fun () ->
          let cam = Camelot.start sys2.Kernel.kernel ~log_disk:ld2 ~data_disk:dd2 ~format:false () in
          let client = Task.create sys2.Kernel.kernel ~name:"c2" () in
          ignore
            (Thread.spawn client ~name:"c2.main" (fun () ->
                 let server = Camelot.service_port cam in
                 match Camelot.Client.map_segment client ~server "s" ~size:page with
                 | Error _ -> verdict := false
                 | Ok base ->
                   (* Last committed value per slot. *)
                   let expected = Hashtbl.create 16 in
                   List.iter (fun (slot, v) -> Hashtbl.replace expected slot v) committed_writes;
                   Hashtbl.iter
                     (fun slot v ->
                       match Syscalls.read_bytes client ~addr:(base + (slot * 16)) ~len:1 () with
                       | Ok b -> if Bytes.get_uint8 b 0 <> v then verdict := false
                       | Error _ -> verdict := false)
                     expected;
                   (* The poison never committed. *)
                   (match Syscalls.read_bytes client ~addr:(base + (63 * 16)) ~len:1 () with
                   | Ok b -> if Bytes.get_uint8 b 0 = 255 then verdict := false
                   | Error _ -> verdict := false))));
      Engine.run sys2.Kernel.engine;
      !verdict)

let () =
  Alcotest.run "props"
    [
      ( "system-properties",
        [
          QCheck_alcotest.to_alcotest cow_isolation_prop;
          QCheck_alcotest.to_alcotest hinted_lookup_prop;
          QCheck_alcotest.to_alcotest netmem_coherence_prop;
          QCheck_alcotest.to_alcotest camelot_recovery_prop;
        ] );
    ]
