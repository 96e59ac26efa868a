(* §8.2: copy-on-reference task migration between hosts. *)

open Mach
module Migrator = Mach_pagers.Migrator

let check = Alcotest.check
let page = 4096

(* A frozen source task with [pages] pages of recognisable content. *)
let make_source kernel ~pages =
  let src = Task.create kernel ~name:"victim" () in
  let done_ = Ivar.create () in
  ignore
    (Thread.spawn src ~name:"victim.init" (fun () ->
         let addr = Syscalls.vm_allocate src ~size:(pages * page) ~anywhere:true () in
         for i = 0 to pages - 1 do
           let tag = Bytes.of_string (Printf.sprintf "page-%03d" i) in
           match Syscalls.write_bytes src ~addr:(addr + (i * page)) tag () with
           | Ok () -> ()
           | Error e -> Alcotest.failf "init write: %a" Access.pp_error e
         done;
         Ivar.fill done_ addr));
  (src, done_)

let run_cluster ?config f =
  let cluster = Kernel.create_cluster ~hosts:2 ?config () in
  let result = ref None in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () -> result := Some (f cluster));
  Engine.run cluster.Kernel.c_engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "scenario did not complete (deadlock?)"

let read_tag task addr i =
  match Syscalls.read_bytes task ~addr:(addr + (i * page)) ~len:8 () with
  | Ok b -> Bytes.to_string b
  | Error e -> Alcotest.failf "migrated read: %a" Access.pp_error e

let test_strategy strategy ~touch ~expect_shipped_at_most ~expect_shipped_at_least () =
  run_cluster (fun cluster ->
      let pages = 16 in
      let src, addr_ivar = make_source cluster.Kernel.c_kernels.(0) ~pages in
      let addr = Ivar.read addr_ivar in
      let mgr = Migrator.start cluster.Kernel.c_kernels.(0) () in
      let mg = Migrator.migrate mgr ~src ~dst_kernel:cluster.Kernel.c_kernels.(1) strategy in
      let dst = mg.Migrator.mg_task in
      let finished = Ivar.create () in
      ignore
        (Thread.spawn dst ~name:"victim-migrated.main" (fun () ->
             List.iter
               (fun i ->
                 check Alcotest.string
                   (Printf.sprintf "page %d content survives migration" i)
                   (Printf.sprintf "page-%03d" i)
                   (read_tag dst addr i))
               touch;
             Ivar.fill finished ()));
      Ivar.read finished;
      let shipped = Migrator.pages_transferred mgr in
      Alcotest.(check bool)
        (Printf.sprintf "shipped %d <= %d" shipped expect_shipped_at_most)
        true (shipped <= expect_shipped_at_most);
      Alcotest.(check bool)
        (Printf.sprintf "shipped %d >= %d" shipped expect_shipped_at_least)
        true (shipped >= expect_shipped_at_least))

let test_cor_writes_are_private () =
  run_cluster (fun cluster ->
      let src, addr_ivar = make_source cluster.Kernel.c_kernels.(0) ~pages:4 in
      let addr = Ivar.read addr_ivar in
      let mgr = Migrator.start cluster.Kernel.c_kernels.(0) () in
      let mg =
        Migrator.migrate mgr ~src ~dst_kernel:cluster.Kernel.c_kernels.(1)
          Migrator.Copy_on_reference
      in
      let dst = mg.Migrator.mg_task in
      let finished = Ivar.create () in
      ignore
        (Thread.spawn dst ~name:"migrated.main" (fun () ->
             (match Syscalls.write_bytes dst ~addr (Bytes.of_string "MUTATED!") () with
             | Ok () -> ()
             | Error e -> Alcotest.failf "migrated write: %a" Access.pp_error e);
             check Alcotest.string "dst sees its write" "MUTATED!" (read_tag dst addr 0);
             Ivar.fill finished ()));
      Ivar.read finished;
      (* The frozen source is untouched. *)
      let v =
        match
          Access.read_bytes cluster.Kernel.c_kernels.(0).Ktypes.k_kctx (Task.map src) ~addr ~len:8
            ()
        with
        | Ok b -> Bytes.to_string b
        | Error e -> Alcotest.failf "src read: %a" Access.pp_error e
      in
      check Alcotest.string "source untouched" "page-000" v)

let test_multi_region_task () =
  run_cluster (fun cluster ->
      let src = Task.create cluster.Kernel.c_kernels.(0) ~name:"multi" () in
      let ready = Ivar.create () in
      ignore
        (Thread.spawn src ~name:"multi.init" (fun () ->
             let a = Syscalls.vm_allocate src ~addr:0x10000 ~size:(2 * page) ~anywhere:false () in
             let b = Syscalls.vm_allocate src ~addr:0x80000 ~size:(2 * page) ~anywhere:false () in
             ignore (Syscalls.write_bytes src ~addr:a (Bytes.of_string "region-A") ());
             ignore (Syscalls.write_bytes src ~addr:b (Bytes.of_string "region-B") ());
             Ivar.fill ready (a, b)));
      let a, b = Ivar.read ready in
      let mgr = Migrator.start cluster.Kernel.c_kernels.(0) () in
      let mg =
        Migrator.migrate mgr ~src ~dst_kernel:cluster.Kernel.c_kernels.(1)
          Migrator.Copy_on_reference
      in
      let dst = mg.Migrator.mg_task in
      let fin = Ivar.create () in
      ignore
        (Thread.spawn dst ~name:"multi-migrated.main" (fun () ->
             (match Syscalls.read_bytes dst ~addr:a ~len:8 () with
             | Ok bytes ->
               Alcotest.(check string) "region A at same address" "region-A" (Bytes.to_string bytes)
             | Error e -> Alcotest.failf "A: %a" Access.pp_error e);
             (match Syscalls.read_bytes dst ~addr:b ~len:8 () with
             | Ok bytes ->
               Alcotest.(check string) "region B at same address" "region-B" (Bytes.to_string bytes)
             | Error e -> Alcotest.failf "B: %a" Access.pp_error e);
             Ivar.fill fin ()));
      Ivar.read fin)

let test_finish_stops_demand_paging () =
  run_cluster (fun cluster ->
      let src, addr_ivar = make_source cluster.Kernel.c_kernels.(0) ~pages:4 in
      let addr = Ivar.read addr_ivar in
      let mgr = Migrator.start cluster.Kernel.c_kernels.(0) () in
      let mg =
        Migrator.migrate mgr ~src ~dst_kernel:cluster.Kernel.c_kernels.(1)
          Migrator.Copy_on_reference
      in
      let dst = mg.Migrator.mg_task in
      let fin = Ivar.create () in
      ignore
        (Thread.spawn dst ~name:"migrated.main" (fun () ->
             (* Pull one page across, then end the migration. *)
             ignore (Syscalls.read_bytes dst ~addr ~len:8 ());
             Migrator.finish mgr mg;
             Alcotest.(check bool) "source reclaimed" false (Task.alive src);
             (* Already-resident data still works... *)
             (match Syscalls.read_bytes dst ~addr ~len:8 () with
             | Ok b -> Alcotest.(check string) "resident page fine" "page-000" (Bytes.to_string b)
             | Error e -> Alcotest.failf "resident: %a" Access.pp_error e);
             (* ...but unpulled pages can no longer be demand-fetched:
                the manager answers unavailable (zero-fill). *)
             (match
                Syscalls.read_bytes dst ~addr:(addr + (3 * page)) ~len:8
                  ~policy:(Fault.Zero_fill_after 5_000_000.0) ()
              with
             | Ok b ->
               Alcotest.(check string) "post-finish fetch is zeroes" (String.make 8 '\000')
                 (Bytes.to_string b)
             | Error e -> Alcotest.failf "post-finish: %a" Access.pp_error e);
             Ivar.fill fin ()));
      Ivar.read fin)

(* Pre-paging a task larger than either host's memory: the destination
   pages the migrated copy out while the source pages the frozen one,
   and the pageout daemon must keep both moving even when its pass only
   ages referenced pages while other work is queued. *)
let test_prepaging_beyond_memory () =
  let config = { Kernel.default_config with Kernel.phys_frames = 102 } in
  let pages = 128 in
  run_cluster ~config (fun cluster ->
      let src, addr_ivar = make_source cluster.Kernel.c_kernels.(0) ~pages in
      let addr = Ivar.read addr_ivar in
      let mgr = Migrator.start cluster.Kernel.c_kernels.(0) () in
      let mg =
        Migrator.migrate mgr ~src ~dst_kernel:cluster.Kernel.c_kernels.(1) (Migrator.Pre_paging 4)
      in
      let dst = mg.Migrator.mg_task in
      let finished = Ivar.create () in
      ignore
        (Thread.spawn dst ~name:"victim-migrated.main" (fun () ->
             for i = 0 to pages - 1 do
               check Alcotest.string "page content survives migration"
                 (Printf.sprintf "page-%03d" i) (read_tag dst addr i)
             done;
             Ivar.fill finished ()));
      Ivar.read finished)

let () =
  Alcotest.run "migrator"
    [
      ( "migration",
        [
          Alcotest.test_case "eager copy ships all pages" `Quick
            (test_strategy Migrator.Eager_copy ~touch:[ 0; 15 ] ~expect_shipped_at_most:16
               ~expect_shipped_at_least:16);
          Alcotest.test_case "copy-on-reference ships only touched pages" `Quick
            (test_strategy Migrator.Copy_on_reference ~touch:[ 0; 7; 15 ]
               ~expect_shipped_at_most:3 ~expect_shipped_at_least:3);
          Alcotest.test_case "pre-paging ships touched plus lookahead" `Quick
            (test_strategy (Migrator.Pre_paging 2) ~touch:[ 0 ] ~expect_shipped_at_most:3
               ~expect_shipped_at_least:2);
          Alcotest.test_case "migrated writes are private to destination" `Quick
            test_cor_writes_are_private;
          Alcotest.test_case "multi-region task keeps addresses" `Quick test_multi_region_task;
          Alcotest.test_case "finish reclaims source, stops paging" `Quick
            test_finish_stops_demand_paging;
          Alcotest.test_case "pre-paging completes on hosts smaller than the task" `Quick
            test_prepaging_beyond_memory;
        ] );
    ]
