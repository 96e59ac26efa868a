(* Cross-subsystem integration scenarios: concurrent filesystem
   clients, footnote-7 shared file mappings, three-host shared memory,
   paging pressure mixed with pager traffic, and shadow-chain collapse
   observed end-to-end. *)

open Mach
module Minimal_fs = Mach_pagers.Minimal_fs
module Netmem = Mach_pagers.Netmem

let check = Alcotest.check
let page = 4096

let test_concurrent_fs_clients () =
  let sys = Kernel.create_system () in
  let disk = Disk.create sys.Kernel.engine ~name:"fsdisk" ~blocks:4096 ~block_size:page () in
  let finished = ref 0 in
  let nclients = 4 in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let server = Minimal_fs.service_port fsrv in
      for c = 0 to nclients - 1 do
        let client = Task.create sys.Kernel.kernel ~name:(Printf.sprintf "cl%d" c) () in
        ignore
          (Thread.spawn client ~name:(Printf.sprintf "cl%d.main" c) (fun () ->
               (* Each client repeatedly writes its own file and reads a
                  shared one. *)
               (match
                  Minimal_fs.Client.write_file client ~server "shared"
                    (Bytes.of_string "shared-contents")
                with
               | Ok () | Error _ -> ());
               for round = 0 to 4 do
                 let mine = Printf.sprintf "own-%d" c in
                 let payload = Printf.sprintf "client %d round %d" c round in
                 (match Minimal_fs.Client.write_file client ~server mine (Bytes.of_string payload) with
                 | Ok () -> ()
                 | Error e -> Alcotest.failf "write: %a" Minimal_fs.Client.pp_error e);
                 (match Minimal_fs.Client.read_file client ~server mine with
                 | Ok (addr, size) ->
                   (match Syscalls.read_bytes client ~addr ~len:size () with
                   | Ok b -> check Alcotest.string "own file intact" payload (Bytes.to_string b)
                   | Error e -> Alcotest.failf "own read: %a" Access.pp_error e);
                   Syscalls.vm_deallocate client ~addr ~size
                 | Error e -> Alcotest.failf "own open: %a" Minimal_fs.Client.pp_error e);
                 match Minimal_fs.Client.read_file client ~server "shared" with
                 | Ok (addr, size) ->
                   (match Syscalls.read_bytes client ~addr ~len:size () with
                   | Ok b ->
                     check Alcotest.string "shared stable" "shared-contents" (Bytes.to_string b)
                   | Error e -> Alcotest.failf "shared read: %a" Access.pp_error e);
                   Syscalls.vm_deallocate client ~addr ~size
                 | Error e -> Alcotest.failf "shared open: %a" Minimal_fs.Client.pp_error e
               done;
               incr finished))
      done);
  Engine.run sys.Kernel.engine;
  check Alcotest.int "all clients finished" nclients !finished

let test_map_file_is_shared () =
  (* Footnote 7: vm_allocate_with_pager gives access to the object, not
     a copy — two clients mapping the same file see each other. *)
  let sys = Kernel.create_system () in
  let disk = Disk.create sys.Kernel.engine ~name:"fsdisk" ~blocks:1024 ~block_size:page () in
  let done_ = ref false in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let server = Minimal_fs.service_port fsrv in
      let a = Task.create sys.Kernel.kernel ~name:"a" () in
      let b = Task.create sys.Kernel.kernel ~name:"b" () in
      ignore
        (Thread.spawn a ~name:"a.main" (fun () ->
             (match Minimal_fs.Client.write_file a ~server "f" (Bytes.of_string "original") with
             | Ok () -> ()
             | Error e -> Alcotest.failf "seed: %a" Minimal_fs.Client.pp_error e);
             let a_addr, _ =
               match Minimal_fs.Client.map_file a ~server "f" with
               | Ok r -> r
               | Error e -> Alcotest.failf "map a: %a" Minimal_fs.Client.pp_error e
             in
             let b_addr, _ =
               match Minimal_fs.Client.map_file b ~server "f" with
               | Ok r -> r
               | Error e -> Alcotest.failf "map b: %a" Minimal_fs.Client.pp_error e
             in
             (* a writes through the mapping; b must see it (same
                memory object, same kernel cache). *)
             (match Syscalls.write_bytes a ~addr:a_addr (Bytes.of_string "MUTATED!") () with
             | Ok () -> ()
             | Error e -> Alcotest.failf "a write: %a" Access.pp_error e);
             (match Syscalls.read_bytes b ~addr:b_addr ~len:8 () with
             | Ok bytes -> check Alcotest.string "b sees a's write" "MUTATED!" (Bytes.to_string bytes)
             | Error e -> Alcotest.failf "b read: %a" Access.pp_error e);
             (* read_file still returns a COW copy of the *original*
                disk contents? No — of the current object contents. *)
             (match Minimal_fs.Client.read_file b ~server "f" with
             | Ok (addr, size) -> (
               match Syscalls.read_bytes b ~addr ~len:size () with
               | Ok bytes ->
                 check Alcotest.string "copy sees object state" "MUTATED!" (Bytes.to_string bytes)
               | Error e -> Alcotest.failf "copy read: %a" Access.pp_error e)
             | Error e -> Alcotest.failf "copy open: %a" Minimal_fs.Client.pp_error e);
             done_ := true)));
  Engine.run sys.Kernel.engine;
  Alcotest.(check bool) "scenario completed" true !done_

let test_three_host_netmem () =
  let cluster = Kernel.create_cluster ~hosts:3 () in
  let done_count = ref 0 in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:page in
      (* Token-passing: each host increments a shared counter in turn,
         strictly serialised by ivars. *)
      let turns = Array.init 3 (fun _ -> Ivar.create ()) in
      let final = Ivar.create () in
      for host = 0 to 2 do
        let task =
          Task.create cluster.Kernel.c_kernels.(host) ~name:(Printf.sprintf "h%d" host) ()
        in
        ignore
          (Thread.spawn task ~name:(Printf.sprintf "h%d.main" host) (fun () ->
               let addr =
                 Syscalls.vm_allocate_with_pager task ~size:page ~anywhere:true
                   ~memory_object:region ~offset:0 ()
               in
               if host > 0 then Ivar.read turns.(host - 1);
               let v =
                 match
                   Syscalls.read_bytes task ~addr ~len:1 ~policy:(Fault.Abort_after 30_000_000.0) ()
                 with
                 | Ok b -> Bytes.get_uint8 b 0
                 | Error e -> Alcotest.failf "h%d read: %a" host Access.pp_error e
               in
               check Alcotest.int (Printf.sprintf "host %d sees predecessor count" host) host v;
               (match
                  Syscalls.write_bytes task ~addr (Bytes.make 1 (Char.chr (v + 1)))
                    ~policy:(Fault.Abort_after 30_000_000.0) ()
                with
               | Ok () -> ()
               | Error e -> Alcotest.failf "h%d write: %a" host Access.pp_error e);
               incr done_count;
               Ivar.fill turns.(host) ();
               if host = 2 then Ivar.fill final ()))
      done;
      ignore final);
  Engine.run cluster.Kernel.c_engine;
  check Alcotest.int "all hosts took their turn" 3 !done_count

let test_fs_under_memory_pressure () =
  (* A small machine compiling against the fs server while also using
     more anonymous memory than exists: both must stay correct. *)
  let config = { Kernel.default_config with Kernel.phys_frames = 96 } in
  let sys = Kernel.create_system ~config () in
  let disk = Disk.create sys.Kernel.engine ~name:"fsdisk" ~blocks:2048 ~block_size:page () in
  let ok = ref false in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let server = Minimal_fs.service_port fsrv in
      let app = Task.create sys.Kernel.kernel ~name:"app" () in
      ignore
        (Thread.spawn app ~name:"app.main" (fun () ->
             let file_data = Bytes.init (20 * page) (fun i -> Char.chr (33 + (i mod 90))) in
             (match Minimal_fs.Client.write_file app ~server "blob" file_data with
             | Ok () -> ()
             | Error e -> Alcotest.failf "write: %a" Minimal_fs.Client.pp_error e);
             (* Anonymous pressure. *)
             let anon = 100 in
             let addr = Syscalls.vm_allocate app ~size:(anon * page) ~anywhere:true () in
             for i = 0 to anon - 1 do
               ignore
                 (Syscalls.write_bytes app ~addr:(addr + (i * page))
                    (Bytes.of_string (Printf.sprintf "anon%04d" i))
                    ())
             done;
             (* File contents verified while paging. *)
             (match Minimal_fs.Client.read_file app ~server "blob" with
             | Ok (faddr, fsize) -> (
               match Syscalls.read_bytes app ~addr:faddr ~len:fsize () with
               | Ok b ->
                 Alcotest.(check bool) "file bytes intact" true (Bytes.equal b file_data);
                 Syscalls.vm_deallocate app ~addr:faddr ~size:fsize
               | Error e -> Alcotest.failf "file read: %a" Access.pp_error e)
             | Error e -> Alcotest.failf "file open: %a" Minimal_fs.Client.pp_error e);
             (* Anonymous contents verified after paging. *)
             for i = 0 to anon - 1 do
               match Syscalls.read_bytes app ~addr:(addr + (i * page)) ~len:8 () with
               | Ok b ->
                 check Alcotest.string
                   (Printf.sprintf "anon page %d" i)
                   (Printf.sprintf "anon%04d" i)
                   (Bytes.to_string b)
               | Error e -> Alcotest.failf "anon read: %a" Access.pp_error e
             done;
             ok := true)));
  Engine.run sys.Kernel.engine;
  Alcotest.(check bool) "completed under pressure" true !ok

let test_collapse_bounds_chains_end_to_end () =
  let sys = Kernel.create_system () in
  let depth = ref (-1) in
  let collapses = ref 0 in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let parent = Task.create sys.Kernel.kernel ~name:"p" () in
      ignore
        (Thread.spawn parent ~name:"p.main" (fun () ->
             let addr = Syscalls.vm_allocate parent ~size:page ~anywhere:true () in
             ignore (Syscalls.write_bytes parent ~addr (Bytes.of_string "x") ());
             for g = 1 to 10 do
               let child =
                 Task.create sys.Kernel.kernel ~parent ~name:(Printf.sprintf "g%d" g) ()
               in
               let fin = Ivar.create () in
               ignore
                 (Thread.spawn child ~name:(Printf.sprintf "g%d.main" g) (fun () ->
                      ignore (Syscalls.write_bytes child ~addr (Bytes.of_string "c") ());
                      Ivar.fill fin ()));
               Ivar.read fin;
               Task.terminate child;
               ignore (Syscalls.write_bytes parent ~addr (Bytes.of_string "p") ())
             done;
             let d =
               List.fold_left
                 (fun acc e ->
                   match e.Vm_map.backing with
                   | Vm_map.Direct dd -> max acc (Vm_object.chain_depth dd.Vm_map.d_obj)
                   | Vm_map.Shared _ -> acc)
                 0
                 (Vm_map.entries (Task.map parent))
             in
             depth := d;
             collapses := Counters.get (Kernel.stats sys.Kernel.kernel) Vm_types.s_collapses)));
  Engine.run sys.Kernel.engine;
  Alcotest.(check bool) "chain depth bounded" true (!depth >= 0 && !depth <= 2);
  Alcotest.(check bool) "collapses happened" true (!collapses > 0)

let () =
  Alcotest.run "integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "concurrent fs clients" `Quick test_concurrent_fs_clients;
          Alcotest.test_case "map_file is shared (footnote 7)" `Quick test_map_file_is_shared;
          Alcotest.test_case "three-host shared memory token ring" `Quick test_three_host_netmem;
          Alcotest.test_case "filesystem under memory pressure" `Quick
            test_fs_under_memory_pressure;
          Alcotest.test_case "shadow collapse bounds chains" `Quick
            test_collapse_bounds_chains_end_to_end;
        ] );
    ]
