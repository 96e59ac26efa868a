(* Pager conformance: the same protocol scenarios driven against all
   five managers — multi-page data_request, run-shaped data_write with
   release, single-page re-request, data_unlock resolution, request-port
   death, and a reply to the dead port — each asserted through the
   shared [Pager_runtime.Stats] block. A manager passes by sitting on
   the runtime, not by re-implementing the plumbing. *)

open Mach
module Rt_stats = Mach_vm.Pager_runtime.Stats
module Minimal_fs = Mach_pagers.Minimal_fs
module Camelot = Mach_pagers.Camelot
module Netmem = Mach_pagers.Netmem
module Migrator = Mach_pagers.Migrator
module Fs_layout = Mach_fs.Fs_layout

let page = 4096

(* --- a protocol driver playing the kernel's side ------------------------ *)

type driver = {
  d_task : task;
  d_rq_name : Port_space.name;
  d_request : Message.port;  (** plays both request and name port *)
}

let make_driver kernel =
  let d_task = Task.create kernel ~name:"protocol-driver" () in
  let d_rq_name = Syscalls.port_allocate d_task ~backlog:64 () in
  Syscalls.port_enable d_task d_rq_name;
  let d_request = Option.get (Syscalls.port_lookup d_task d_rq_name) in
  { d_task; d_rq_name; d_request }

let send d ?(with_reply = false) call ~dest =
  let reply = if with_reply then Some d.d_request else None in
  match Syscalls.msg_send d.d_task (Pager_iface.encode_k2m ~reply call ~dest) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "driver send failed"

(* Collect manager replies until the request port stays quiet. The idle
   window is simulated time, so generosity is free. *)
let drain ?(idle_us = 300_000.0) d =
  let rec loop acc =
    match Syscalls.msg_receive d.d_task ~from:(`Port d.d_rq_name) ~timeout:idle_us () with
    | Ok msg -> (
      match Pager_iface.decode_m2k msg with
      | call -> loop (call :: acc)
      | exception Pager_iface.Malformed _ -> loop acc)
    | Error _ -> List.rev acc
  in
  loop []

let pages_of len = max 1 ((len + page - 1) / page)

let provided_pages =
  List.fold_left
    (fun acc -> function
      | Pager_iface.Data_provided { data; _ } -> acc + pages_of (Bytes.length data)
      | _ -> acc)
    0

let unavailable_pages =
  List.fold_left
    (fun acc -> function
      | Pager_iface.Data_unavailable { size; _ } -> acc + pages_of size
      | _ -> acc)
    0

let has_release = List.exists (function Pager_iface.Release_write _ -> true | _ -> false)

let has_lock_reply =
  List.exists (function
    | Pager_iface.Data_lock _ | Pager_iface.Data_provided _ -> true
    | _ -> false)

(* --- the scenarios ------------------------------------------------------ *)

(* [min_read_pages]: how much of a 4-page request the manager must
   answer — 4 for everyone except copy-on-reference migration, which
   deliberately reshapes the cluster down to the demanded page. *)
let run_scenario ?(min_read_pages = 4) d ~dest ~stats =
  let field k = List.assoc k (Rt_stats.to_list (stats ())) in
  let checkb = Alcotest.(check bool) in
  (* 1. init: attach this "kernel" to the object. *)
  send d (Pager_iface.Init { memory_object = dest; request = d.d_request; name = d.d_request })
    ~dest;
  ignore (drain ~idle_us:50_000.0 d);
  (* a possible pager_cache reply *)
  (* 2. run-shaped write: three pages in one data_write, reply routed
        back as release_write. *)
  let w0 = field "writes" and pw0 = field "pages_written" in
  send d ~with_reply:true
    (Pager_iface.Data_write
       { memory_object = dest; offset = 0; data = Bytes.make (3 * page) 'w'; write_id = 7 })
    ~dest;
  let replies = drain d in
  checkb "write released" true (has_release replies);
  checkb "write counted" true (field "writes" >= w0 + 1);
  checkb "write pages counted" true (field "pages_written" >= pw0 + 3);
  (* 3. multi-page request: every page must be answered, provided or
        declared unavailable (modulo the manager's reshape policy). *)
  let r0 = field "requests" in
  send d
    (Pager_iface.Data_request
       {
         memory_object = dest;
         request = d.d_request;
         offset = 0;
         length = 4 * page;
         desired_access = Prot.read;
       })
    ~dest;
  let replies = drain d in
  let answered = provided_pages replies + unavailable_pages replies in
  checkb "request counted" true (field "requests" >= r0 + 1);
  checkb
    (Printf.sprintf "4-page request answered (%d/%d)" answered min_read_pages)
    true (answered >= min_read_pages);
  (* 4. single-page re-request (the partial-provide recovery path). *)
  send d
    (Pager_iface.Data_request
       {
         memory_object = dest;
         request = d.d_request;
         offset = 0;
         length = page;
         desired_access = Prot.read;
       })
    ~dest;
  let replies = drain d in
  checkb "re-request answered" true (provided_pages replies + unavailable_pages replies >= 1);
  (* 5. unlock: must resolve to a lock change (or a fresh provide). *)
  let u0 = field "unlocks" in
  send d
    (Pager_iface.Data_unlock
       {
         memory_object = dest;
         request = d.d_request;
         offset = 0;
         length = page;
         desired_access = Prot.rw;
       })
    ~dest;
  let replies = drain d in
  checkb "unlock resolved" true (has_lock_reply replies);
  checkb "unlock counted" true (field "unlocks" >= u0 + 1);
  (* 6. request-port death: the manager must notice and account it. *)
  let pd0 = field "port_deaths" in
  Syscalls.port_deallocate d.d_task d.d_rq_name;
  Engine.sleep 100_000.0;
  checkb "port death observed" true (field "port_deaths" >= pd0 + 1);
  (* 7. a reply to the dead port: the release of a write whose reply
        port is gone fails, and counts as exactly one dropped reply. *)
  let dr0 = field "dropped_replies" in
  send d ~with_reply:true
    (Pager_iface.Data_write
       { memory_object = dest; offset = 0; data = Bytes.make page 'x'; write_id = 8 })
    ~dest;
  Engine.sleep 100_000.0;
  Alcotest.(check int) "one dropped reply" (dr0 + 1) (field "dropped_replies")

(* Boot a system and run [body] in a driver thread. *)
let in_driver ~name body =
  let sys = Kernel.create_system () in
  let result = ref None in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let d = make_driver sys.Kernel.kernel in
      ignore
        (Thread.spawn d.d_task ~name:"driver.main" (fun () ->
             body sys d;
             result := Some ())));
  Engine.run sys.Kernel.engine;
  match !result with
  | Some () -> ()
  | None -> Alcotest.failf "%s: driver did not complete (deadlock?)" name

(* Run [setup] (returning the object port to drive and the manager's
   stats block), then the scenario. *)
let run_conf ?min_read_pages ~name setup =
  in_driver ~name (fun sys d ->
      let dest, stats = setup sys d in
      run_scenario ?min_read_pages d ~dest ~stats)

(* --- one setup per manager ---------------------------------------------- *)

let test_minimal_fs () =
  run_conf ~name:"minimal_fs" (fun sys _d ->
      let disk =
        Disk.create sys.Kernel.engine ~name:"fsdisk" ~blocks:512 ~block_size:page ()
      in
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      Fs_layout.write_file (Minimal_fs.fs fsrv) "conf.dat" (Bytes.make (4 * page) 'f');
      (Minimal_fs.file_object fsrv "conf.dat", fun () -> Minimal_fs.runtime_stats fsrv))

let test_camelot () =
  run_conf ~name:"camelot" (fun sys _d ->
      let log_disk =
        Disk.create sys.Kernel.engine ~name:"log" ~blocks:512 ~block_size:page ()
      in
      let data_disk =
        Disk.create sys.Kernel.engine ~name:"data" ~blocks:512 ~block_size:page ()
      in
      let cam =
        Camelot.start sys.Kernel.kernel ~log_disk ~data_disk ~format:true ()
      in
      (Camelot.segment_object cam "seg" ~size:(4 * page), fun () -> Camelot.runtime_stats cam))

let test_netmem () =
  run_conf ~name:"netmem" (fun sys _d ->
      let nm = Netmem.start sys.Kernel.kernel () in
      let region = Netmem.create_region nm ~size:(4 * page) in
      Netmem.write_initial nm ~region ~offset:0 (Bytes.make (4 * page) 'n');
      (region, fun () -> Netmem.runtime_stats nm))

let test_migrator () =
  run_conf ~min_read_pages:1 ~name:"migrator" (fun sys _d ->
      let mig = Migrator.start sys.Kernel.kernel () in
      let src = Task.create sys.Kernel.kernel ~name:"src" () in
      let base = Syscalls.vm_allocate src ~size:(4 * page) ~anywhere:true () in
      ignore (Syscalls.write_bytes src ~addr:base (Bytes.make 64 'm') ());
      ( Migrator.back_region mig ~src ~base ~size:(4 * page) Migrator.Copy_on_reference,
        fun () -> Migrator.runtime_stats mig ))

(* The kernel's side of pager_create: a fresh object port whose receive
   right the default pager adopts. *)
let create_default_object sys d =
  let dp_port = Option.get (Kernel.kctx sys.Kernel.kernel).Kctx.default_pager_port in
  let memory_object = Port.create sys.Kernel.ipc_ctx ~home:(Port.home dp_port) ~backlog:256 ~drop:Message.discard () in
  send d
    (Pager_iface.Create
       { new_memory_object = memory_object; request = d.d_request; name = d.d_request; size = 4 * page })
    ~dest:dp_port;
  Engine.sleep 50_000.0;
  memory_object

let default_pager sys = Option.get sys.Kernel.kernel.Ktypes.k_default_pager

let test_default_pager () =
  run_conf ~name:"default-pager" (fun sys d ->
      (create_default_object sys d, fun () -> Default_pager.runtime_stats (default_pager sys)))

(* A later pager_init for an object the default pager already manages
   must not adopt it afresh: the pages written before it stay readable,
   and their paging blocks come back once, when the request port dies. *)
let test_default_pager_init_keeps_data () =
  in_driver ~name:"default-pager init" (fun sys d ->
      let dp = default_pager sys in
      let free0 = Default_pager.blocks_free dp in
      let dest = create_default_object sys d in
      let written = Bytes.make (3 * page) 'w' in
      send d ~with_reply:true
        (Pager_iface.Data_write { memory_object = dest; offset = 0; data = written; write_id = 1 })
        ~dest;
      ignore (drain d);
      send d (Pager_iface.Init { memory_object = dest; request = d.d_request; name = d.d_request })
        ~dest;
      ignore (drain ~idle_us:50_000.0 d);
      send d
        (Pager_iface.Data_request
           {
             memory_object = dest;
             request = d.d_request;
             offset = 0;
             length = 3 * page;
             desired_access = Prot.read;
           })
        ~dest;
      let replies = drain d in
      let provided =
        List.filter_map
          (function Pager_iface.Data_provided { data; _ } -> Some data | _ -> None)
          replies
      in
      Alcotest.(check int) "no page unavailable" 0 (unavailable_pages replies);
      Alcotest.(check bool) "written bytes read back" true
        (Bytes.equal written (Bytes.concat Bytes.empty provided));
      Syscalls.port_deallocate d.d_task d.d_rq_name;
      Engine.sleep 100_000.0;
      Alcotest.(check int) "paging blocks reclaimed" free0 (Default_pager.blocks_free dp))

(* The object port dying (not only the request port) ends the object:
   the runtime hears of it and the default pager frees its blocks. *)
let test_default_pager_object_death () =
  in_driver ~name:"default-pager object death" (fun sys d ->
      let dp = default_pager sys in
      let free0 = Default_pager.blocks_free dp in
      let dest = create_default_object sys d in
      send d ~with_reply:true
        (Pager_iface.Data_write
           { memory_object = dest; offset = 0; data = Bytes.make (3 * page) 'w'; write_id = 1 })
        ~dest;
      ignore (drain d);
      Alcotest.(check int) "three blocks in use" (free0 - 3) (Default_pager.blocks_free dp);
      Port.destroy dest;
      Engine.sleep 100_000.0;
      Alcotest.(check int) "paging blocks reclaimed" free0 (Default_pager.blocks_free dp))

let () =
  Alcotest.run "pager_conformance"
    [
      ( "conformance",
        [
          Alcotest.test_case "minimal_fs" `Quick test_minimal_fs;
          Alcotest.test_case "camelot" `Quick test_camelot;
          Alcotest.test_case "netmem" `Quick test_netmem;
          Alcotest.test_case "migrator (copy-on-reference)" `Quick test_migrator;
          Alcotest.test_case "default pager" `Quick test_default_pager;
        ] );
      ( "default-pager",
        [
          Alcotest.test_case "later init keeps written pages" `Quick
            test_default_pager_init_keeps_data;
          Alcotest.test_case "object-port death reclaims blocks" `Quick
            test_default_pager_object_death;
        ] );
    ]
