(* The §4.1 minimal filesystem: read-whole-file / write-whole-file with
   copy-on-write reads through the external pager. *)

open Mach
module Minimal_fs = Mach_pagers.Minimal_fs
module Fs_layout = Mach_fs.Fs_layout

let check = Alcotest.check
let page = 4096
let disk_reads disk = Counters.value (Disk.stats disk) "reads"
let disk_writes disk = Counters.value (Disk.stats disk) "writes"
let disk_blocks_read disk = Counters.value (Disk.stats disk) "blocks_read"

type env = { sys : Kernel.system; fsrv : Minimal_fs.t; client : task }

let with_fs f =
  let sys = Kernel.create_system () in
  let disk = Disk.create sys.Kernel.engine ~name:"fsdisk" ~blocks:2048 ~block_size:page () in
  let result = ref None in
  (* All scenario code, including server boot, runs inside the
     simulation (boot blocks on simulated syscalls). *)
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let client = Task.create sys.Kernel.kernel ~name:"client" () in
      ignore
        (Thread.spawn client ~name:"client.main" (fun () ->
             result := Some (f { sys; fsrv; client }))));
  Engine.run sys.Kernel.engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "client thread did not complete (deadlock?)"

let expect_read env name =
  match Minimal_fs.Client.read_file env.client ~server:(Minimal_fs.service_port env.fsrv) name with
  | Ok (addr, size) -> (addr, size)
  | Error e -> Alcotest.failf "read_file: %a" Minimal_fs.Client.pp_error e

let expect_write env name data =
  match
    Minimal_fs.Client.write_file env.client ~server:(Minimal_fs.service_port env.fsrv) name data
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write_file: %a" Minimal_fs.Client.pp_error e

let read_mem env addr len =
  match Syscalls.read_bytes env.client ~addr ~len () with
  | Ok b -> Bytes.to_string b
  | Error e -> Alcotest.failf "memory read: %a" Access.pp_error e

let test_write_then_read () =
  with_fs (fun env ->
      expect_write env "hello.txt" (Bytes.of_string "file contents here");
      let addr, size = expect_read env "hello.txt" in
      check Alcotest.int "size" 18 size;
      check Alcotest.string "contents" "file contents here" (read_mem env addr size))

let test_missing_file () =
  with_fs (fun env ->
      match
        Minimal_fs.Client.read_file env.client ~server:(Minimal_fs.service_port env.fsrv) "nope"
      with
      | Error `No_such_file -> ()
      | Ok _ -> Alcotest.fail "expected failure"
      | Error e -> Alcotest.failf "wrong error: %a" Minimal_fs.Client.pp_error e)

let test_copy_on_write_isolation () =
  with_fs (fun env ->
      expect_write env "f" (Bytes.of_string "original!");
      let addr, size = expect_read env "f" in
      (* Client scribbles on its mapping (the §4.1 example's random
         changes)... *)
      (match Syscalls.write_bytes env.client ~addr (Bytes.of_string "SCRIBBLE") () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "scribble: %a" Access.pp_error e);
      (* ...but a fresh read still sees the original contents. *)
      let addr2, size2 = expect_read env "f" in
      check Alcotest.int "size unchanged" size size2;
      check Alcotest.string "file unchanged" "original!" (read_mem env addr2 size2);
      check Alcotest.string "scribble visible privately" "SCRIBBLE!" (read_mem env addr size))

let test_write_back_visible () =
  with_fs (fun env ->
      expect_write env "f" (Bytes.of_string "version-1");
      let addr, size = expect_read env "f" in
      check Alcotest.string "v1" "version-1" (read_mem env addr size);
      expect_write env "f" (Bytes.of_string "version-2");
      let addr2, size2 = expect_read env "f" in
      check Alcotest.string "v2 after invalidation" "version-2" (read_mem env addr2 size2))

let test_multi_page_file () =
  with_fs (fun env ->
      let data = Bytes.init (3 * page) (fun i -> Char.chr (0x30 + (i / page))) in
      expect_write env "big" data;
      let addr, size = expect_read env "big" in
      check Alcotest.int "size" (3 * page) size;
      check Alcotest.string "page0" "0" (read_mem env addr 1);
      check Alcotest.string "page1" "1" (read_mem env (addr + page) 1);
      check Alcotest.string "page2" "2" (read_mem env (addr + (2 * page)) 1))

(* Once the private mapping's shadow has paged to the default pager, a
   page the client never read still comes from the file, and the paged
   page from the default pager. *)
let test_private_mapping_after_shadow_pageout () =
  with_fs (fun env ->
      let data = Bytes.init (16 * page) (fun i -> Char.chr (0x41 + (i / page))) in
      expect_write env "big" data;
      let addr, _ = expect_read env "big" in
      (match Syscalls.write_bytes env.client ~addr (Bytes.of_string "x") () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %a" Access.pp_error e);
      let kctx = Kernel.kctx env.sys.Kernel.kernel in
      let shadow, off =
        match Vm_map.lookup (Task.map env.client) ~addr ~write:false with
        | Ok lk -> (lk.Vm_map.lk_obj, lk.Vm_map.lk_offset)
        | Error _ -> Alcotest.fail "mapping gone"
      in
      Alcotest.(check bool) "the write made a shadow" true (shadow.Vm_types.backing <> None);
      let p = Option.get (Mach_vm.Vm_page.lookup shadow ~offset:off) in
      Mach_vm.Pager_client.bind_to_default_pager kctx shadow;
      Mach_vm.Pager_client.write_run kctx [ p ] ~dispose:Vm_types.Dispose_free;
      Mach_vm.Vm_page.wait_unpinned p;
      check Alcotest.string "never-read page from the file" "M"
        (read_mem env (addr + (12 * page)) 1);
      check Alcotest.string "paged page from the default pager" "x" (read_mem env addr 1))

let test_cache_hit_second_read () =
  with_fs (fun env ->
      let data = Bytes.make (4 * page) 'x' in
      expect_write env "cached" data;
      let disk = Fs_layout.disk (Minimal_fs.fs env.fsrv) in
      let addr, _ = expect_read env "cached" in
      ignore (read_mem env addr (4 * page));
      let reads_after_first = disk_reads disk in
      Syscalls.vm_deallocate env.client ~addr ~size:(4 * page);
      (* Second read of the same file: pages must come from the
         kernel's object cache, not the disk (§9). *)
      let addr2, _ = expect_read env "cached" in
      ignore (read_mem env addr2 (4 * page));
      check Alcotest.int "no new disk reads on re-read" reads_after_first (disk_reads disk))

let test_disk_full_is_an_error_not_a_crash () =
  (* A tiny disk: the server must reply with an error, not die. *)
  let sys = Kernel.create_system () in
  let disk = Disk.create sys.Kernel.engine ~name:"tiny" ~blocks:24 ~block_size:page () in
  let outcome = ref `Pending in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let client = Task.create sys.Kernel.kernel ~name:"client" () in
      ignore
        (Thread.spawn client ~name:"client.main" (fun () ->
             let server = Minimal_fs.service_port fsrv in
             match Minimal_fs.Client.write_file client ~server "huge" (Bytes.make (64 * page) 'x') with
             | Error (`Server_error _) -> (
               (* The server survived: a small write still works. *)
               match Minimal_fs.Client.write_file client ~server "small" (Bytes.of_string "ok") with
               | Ok () -> outcome := `Survived
               | Error _ -> outcome := `Server_broken)
             | Ok () -> outcome := `Unexpected_success
             | Error _ -> outcome := `Wrong_error)));
  Engine.run sys.Kernel.engine;
  match !outcome with
  | `Survived -> ()
  | `Pending -> Alcotest.fail "scenario did not finish (server crashed?)"
  | `Unexpected_success -> Alcotest.fail "huge write should fail"
  | `Server_broken -> Alcotest.fail "server unusable after disk-full error"
  | `Wrong_error -> Alcotest.fail "wrong error kind"

let test_map_file_roundtrip () =
  with_fs (fun env ->
      expect_write env "m" (Bytes.of_string "map-me");
      match Minimal_fs.Client.map_file env.client ~server:(Minimal_fs.service_port env.fsrv) "m" with
      | Ok (addr, size) ->
        check Alcotest.int "size" 6 size;
        check Alcotest.string "contents" "map-me" (read_mem env addr size)
      | Error e -> Alcotest.failf "map_file: %a" Minimal_fs.Client.pp_error e)

(* Ship [data] to the file's memory object as one data_write, the way
   the kernel launders a run, and wait for the release. *)
let data_write env name ~offset data =
  let rq_name = Syscalls.port_allocate env.client () in
  let request = Option.get (Syscalls.port_lookup env.client rq_name) in
  let memory_object = Minimal_fs.file_object env.fsrv name in
  let call = Pager_iface.Data_write { memory_object; offset; data; write_id = 1 } in
  (match
     Syscalls.msg_send env.client
       (Pager_iface.encode_k2m ~reply:(Some request) call ~dest:memory_object)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "data_write send failed");
  (match Syscalls.msg_receive env.client ~from:(`Port rq_name) ~timeout:5_000_000.0 () with
  | Ok reply -> (
    match Pager_iface.decode_m2k reply with
    | Pager_iface.Release_write { write_id = 1 } -> ()
    | _ -> Alcotest.fail "expected release_write")
  | Error _ -> Alcotest.fail "data_write never released");
  Syscalls.port_deallocate env.client rq_name

(* Pieces of disk-contiguous blocks holding file blocks [0, n). *)
let pieces fs name n =
  let blk i = Option.get (Fs_layout.file_disk_block fs name ~index:i) in
  let count = ref 1 in
  for i = 1 to n - 1 do
    if blk i <> blk (i - 1) + 1 then incr count
  done;
  !count

let run_data npages = Bytes.init (npages * page) (fun i -> Char.chr (65 + (i / page)))

let test_data_write_run_one_seek () =
  with_fs (fun env ->
      let fs = Minimal_fs.fs env.fsrv in
      let disk = Fs_layout.disk fs in
      Fs_layout.write_file fs "run" (Bytes.make (8 * page) '\000');
      check Alcotest.int "file is contiguous" 1 (pieces fs "run" 8);
      let writes = disk_writes disk in
      data_write env "run" ~offset:0 (run_data 8);
      check Alcotest.int "an 8-page run is one disk write" 1 (disk_writes disk - writes);
      check Alcotest.bool "reads back byte-exact" true
        (Fs_layout.read_file fs "run" = Some (run_data 8)))

let test_data_write_fragmented () =
  with_fs (fun env ->
      let fs = Minimal_fs.fs env.fsrv in
      let disk = Fs_layout.disk fs in
      (* Another file's blocks split "frag" after file blocks 2 and 4;
         the run's last three pages are allocated by the write itself. *)
      Fs_layout.write_file fs "frag" (Bytes.make (3 * page) 'a');
      Fs_layout.write_file fs "gap1" (Bytes.make page 'g');
      Fs_layout.write_range fs "frag" ~off:(3 * page) (Bytes.make (2 * page) 'a');
      Fs_layout.write_file fs "gap2" (Bytes.make page 'h');
      let writes = disk_writes disk in
      data_write env "frag" ~offset:0 (run_data 8);
      check Alcotest.int "three contiguous pieces" 3 (pieces fs "frag" 8);
      check Alcotest.int "one disk write per piece" 3 (disk_writes disk - writes);
      check Alcotest.bool "reads back byte-exact" true
        (Fs_layout.read_file fs "frag" = Some (run_data 8));
      check Alcotest.bool "neighbours untouched" true
        (Fs_layout.read_file fs "gap1" = Some (Bytes.make page 'g')
        && Fs_layout.read_file fs "gap2" = Some (Bytes.make page 'h')))

(* Ask the file's memory object for [npages] pages starting at page 0,
   the way the kernel sends a clustered fault, and collect the replies
   until they cover the range. *)
let data_request env name ~npages =
  let rq_name = Syscalls.port_allocate env.client () in
  let request = Option.get (Syscalls.port_lookup env.client rq_name) in
  let memory_object = Minimal_fs.file_object env.fsrv name in
  let call =
    Pager_iface.Data_request
      { memory_object; request; offset = 0; length = npages * page; desired_access = Prot.read }
  in
  (match Syscalls.msg_send env.client (Pager_iface.encode_k2m ~reply:None call ~dest:memory_object) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "data_request send failed");
  let out = Bytes.make (npages * page) '\000' in
  let covered = ref 0 in
  while !covered < npages * page do
    match Syscalls.msg_receive env.client ~from:(`Port rq_name) ~timeout:5_000_000.0 () with
    | Ok reply -> (
      match Pager_iface.decode_m2k reply with
      | Pager_iface.Data_provided { offset; data; _ } ->
        Bytes.blit data 0 out offset (Bytes.length data);
        covered := !covered + Bytes.length data
      | _ -> Alcotest.fail "expected data_provided")
    | Error _ -> Alcotest.fail "data_request never answered"
  done;
  Syscalls.port_deallocate env.client rq_name;
  out

let test_data_request_run_one_seek () =
  with_fs (fun env ->
      let fs = Minimal_fs.fs env.fsrv in
      let disk = Fs_layout.disk fs in
      Fs_layout.write_file fs "run" (run_data 8);
      check Alcotest.int "file is contiguous" 1 (pieces fs "run" 8);
      let reads = disk_reads disk and blocks = disk_blocks_read disk in
      let data = data_request env "run" ~npages:8 in
      check Alcotest.int "an 8-page request is one disk read" 1 (disk_reads disk - reads);
      check Alcotest.int "it moves 8 blocks" 8 (disk_blocks_read disk - blocks);
      check Alcotest.bool "byte-exact" true (Bytes.equal data (run_data 8)))

let test_data_request_fragmented () =
  with_fs (fun env ->
      let fs = Minimal_fs.fs env.fsrv in
      let disk = Fs_layout.disk fs in
      (* As in the fragmented write: other files split "frag" into
         three disk-contiguous pieces. *)
      Fs_layout.write_file fs "frag" (Bytes.make (3 * page) 'a');
      Fs_layout.write_file fs "gap1" (Bytes.make page 'g');
      Fs_layout.write_range fs "frag" ~off:(3 * page) (Bytes.make (2 * page) 'a');
      Fs_layout.write_file fs "gap2" (Bytes.make page 'h');
      Fs_layout.write_range fs "frag" ~off:0 (run_data 8);
      check Alcotest.int "three contiguous pieces" 3 (pieces fs "frag" 8);
      let reads = disk_reads disk in
      let data = data_request env "frag" ~npages:8 in
      check Alcotest.int "one disk read per piece" 3 (disk_reads disk - reads);
      check Alcotest.bool "byte-exact" true (Bytes.equal data (run_data 8)))

let test_write_file_contiguous_one_seek () =
  with_fs (fun env ->
      let fs = Minimal_fs.fs env.fsrv in
      let disk = Fs_layout.disk fs in
      let writes = disk_writes disk in
      Fs_layout.write_file fs "whole" (run_data 8);
      check Alcotest.int "file is contiguous" 1 (pieces fs "whole" 8);
      check Alcotest.int "an 8-block file is one disk write" 1 (disk_writes disk - writes);
      check Alcotest.bool "reads back byte-exact" true
        (Fs_layout.read_file fs "whole" = Some (run_data 8)))

let test_list_files () =
  with_fs (fun env ->
      expect_write env "a" (Bytes.of_string "1");
      expect_write env "b" (Bytes.of_string "2");
      match Minimal_fs.Client.list_files env.client ~server:(Minimal_fs.service_port env.fsrv) with
      | Ok files -> check Alcotest.(list string) "listing" [ "a"; "b" ] files
      | Error e -> Alcotest.failf "list: %a" Minimal_fs.Client.pp_error e)

let () =
  Alcotest.run "minimal_fs"
    [
      ( "minimal-fs",
        [
          Alcotest.test_case "write then read" `Quick test_write_then_read;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "copy-on-write isolation" `Quick test_copy_on_write_isolation;
          Alcotest.test_case "write-back visible after flush" `Quick test_write_back_visible;
          Alcotest.test_case "multi-page file" `Quick test_multi_page_file;
          Alcotest.test_case "second read hits memory cache" `Quick test_cache_hit_second_read;
          Alcotest.test_case "private page after shadow pageout" `Quick
            test_private_mapping_after_shadow_pageout;
          Alcotest.test_case "list files" `Quick test_list_files;
          Alcotest.test_case "disk full is an error, not a crash" `Quick
            test_disk_full_is_an_error_not_a_crash;
          Alcotest.test_case "map_file roundtrip" `Quick test_map_file_roundtrip;
          Alcotest.test_case "data_write run is one disk write" `Quick
            test_data_write_run_one_seek;
          Alcotest.test_case "fragmented data_write is one write per piece" `Quick
            test_data_write_fragmented;
          Alcotest.test_case "a clustered data_request is one disk read" `Quick
            test_data_request_run_one_seek;
          Alcotest.test_case "a fragmented read is one read per piece" `Quick
            test_data_request_fragmented;
          Alcotest.test_case "write_file of a contiguous file is one disk write" `Quick
            test_write_file_contiguous_one_seek;
        ] );
    ]
