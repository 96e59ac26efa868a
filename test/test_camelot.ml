(* §8.3: Camelot-style recoverable virtual memory — write-ahead
   logging, failure atomicity and crash recovery. *)

open Mach
module Camelot = Mach_pagers.Camelot

let check = Alcotest.check
let page = 4096

(* Disks persist across "crashes"; the systems come and go. *)
let make_disks () =
  let scratch = Engine.create () in
  let log_disk = Disk.create scratch ~name:"log" ~blocks:1024 ~block_size:page () in
  let data_disk = Disk.create scratch ~name:"data" ~blocks:1024 ~block_size:page () in
  (log_disk, data_disk)

let run_epoch ~log_disk ~data_disk ~format f =
  let sys = Kernel.create_system () in
  let log_disk = Disk.reattach log_disk sys.Kernel.engine in
  let data_disk = Disk.reattach data_disk sys.Kernel.engine in
  let result = ref None in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let cam = Camelot.start sys.Kernel.kernel ~log_disk ~data_disk ~format () in
      let client = Task.create sys.Kernel.kernel ~name:"txn-client" () in
      ignore
        (Thread.spawn client ~name:"txn-client.main" (fun () -> result := Some (f sys cam client))));
  Engine.run sys.Kernel.engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "transaction client did not complete (deadlock?)"

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Camelot.Client.pp_error e

let read_mem task ~addr ~len =
  match Syscalls.read_bytes task ~addr ~len () with
  | Ok b -> Bytes.to_string b
  | Error e -> Alcotest.failf "memory read: %a" Access.pp_error e

let test_commit_durable_across_crash () =
  let log_disk, data_disk = make_disks () in
  run_epoch ~log_disk ~data_disk ~format:true (fun _sys cam client ->
      let server = Camelot.service_port cam in
      let base = ok_or_fail "map" (Camelot.Client.map_segment client ~server "acct" ~size:(2 * page)) in
      let tid = ok_or_fail "begin" (Camelot.Client.begin_txn client ~server) in
      ok_or_fail "store"
        (Camelot.Client.store client ~server tid ~segment:"acct" ~base ~offset:100
           (Bytes.of_string "COMMITTED"));
      ok_or_fail "commit" (Camelot.Client.commit client ~server tid);
      (* A second transaction updates but never commits: its changes
         may even reach the data disk via pageout (steal policy). *)
      let tid2 = ok_or_fail "begin2" (Camelot.Client.begin_txn client ~server) in
      ok_or_fail "store2"
        (Camelot.Client.store client ~server tid2 ~segment:"acct" ~base ~offset:300
           (Bytes.of_string "UNCOMMITTED")));
  (* Crash. Reboot and recover. *)
  run_epoch ~log_disk ~data_disk ~format:false (fun _sys cam client ->
      Alcotest.(check bool) "redo applied" true (Camelot.recovered_redo cam >= 1);
      let server = Camelot.service_port cam in
      let base = ok_or_fail "remap" (Camelot.Client.map_segment client ~server "acct" ~size:(2 * page)) in
      check Alcotest.string "committed data survives" "COMMITTED"
        (read_mem client ~addr:(base + 100) ~len:9);
      check Alcotest.string "uncommitted data rolled back"
        (String.make 11 '\000')
        (read_mem client ~addr:(base + 300) ~len:11))

let test_abort_undoes_in_memory () =
  let log_disk, data_disk = make_disks () in
  run_epoch ~log_disk ~data_disk ~format:true (fun _sys cam client ->
      let server = Camelot.service_port cam in
      let base = ok_or_fail "map" (Camelot.Client.map_segment client ~server "s" ~size:page) in
      let tid = ok_or_fail "begin" (Camelot.Client.begin_txn client ~server) in
      ok_or_fail "store"
        (Camelot.Client.store client ~server tid ~segment:"s" ~base ~offset:0
           (Bytes.of_string "doomed"));
      check Alcotest.string "visible before abort" "doomed" (read_mem client ~addr:base ~len:6);
      ok_or_fail "abort" (Camelot.Client.abort client ~server tid);
      check Alcotest.string "undone after abort" (String.make 6 '\000')
        (read_mem client ~addr:base ~len:6))

let test_wal_ordering_under_pressure () =
  let log_disk, data_disk = make_disks () in
  (* Small physical memory forces pageout of dirty recoverable pages
     while transactions are still running. *)
  let config =
    { Kernel.default_config with Kernel.phys_frames = 96; Kernel.pager_timeout_us = 60_000_000.0 }
  in
  let sys = Kernel.create_system ~config () in
  let log_disk = Disk.reattach log_disk sys.Kernel.engine in
  let data_disk = Disk.reattach data_disk sys.Kernel.engine in
  let violations = ref (-1) in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let cam = Camelot.start sys.Kernel.kernel ~log_disk ~data_disk ~format:true () in
      let client = Task.create sys.Kernel.kernel ~name:"txn-client" () in
      ignore
        (Thread.spawn client ~name:"txn-client.main" (fun () ->
             let server = Camelot.service_port cam in
             let npages = 160 in
             let size = npages * page in
             let base = ok_or_fail "map" (Camelot.Client.map_segment client ~server "big" ~size) in
             (* Update more pages than physical memory holds, forcing
                pageout of dirty recoverable pages mid-transaction. *)
             for round = 0 to 1 do
               let tid = ok_or_fail "begin" (Camelot.Client.begin_txn client ~server) in
               for p = 0 to npages - 1 do
                 ok_or_fail "store"
                   (Camelot.Client.store client ~server tid ~segment:"big" ~base
                      ~offset:(p * page)
                      (Bytes.of_string (Printf.sprintf "r%d-p%03d" round p)))
               done;
               ok_or_fail "commit" (Camelot.Client.commit client ~server tid)
             done;
             violations := Camelot.wal_violations cam;
             Alcotest.(check bool) "pageouts happened" true
               (Counters.get (Kernel.stats sys.Kernel.kernel) Vm_types.s_pageouts > 0))));
  Engine.run sys.Kernel.engine;
  check Alcotest.int "no WAL violations" 0 !violations

let test_two_transactions_isolated_offsets () =
  let log_disk, data_disk = make_disks () in
  run_epoch ~log_disk ~data_disk ~format:true (fun _sys cam client ->
      let server = Camelot.service_port cam in
      let base = ok_or_fail "map" (Camelot.Client.map_segment client ~server "s" ~size:page) in
      let t1 = ok_or_fail "begin1" (Camelot.Client.begin_txn client ~server) in
      let t2 = ok_or_fail "begin2" (Camelot.Client.begin_txn client ~server) in
      ok_or_fail "s1" (Camelot.Client.store client ~server t1 ~segment:"s" ~base ~offset:0 (Bytes.of_string "one"));
      ok_or_fail "s2" (Camelot.Client.store client ~server t2 ~segment:"s" ~base ~offset:64 (Bytes.of_string "two"));
      ok_or_fail "commit t1" (Camelot.Client.commit client ~server t1);
      ok_or_fail "abort t2" (Camelot.Client.abort client ~server t2);
      check Alcotest.string "t1 kept" "one" (read_mem client ~addr:base ~len:3);
      check Alcotest.string "t2 undone" (String.make 3 '\000') (read_mem client ~addr:(base + 64) ~len:3))

let test_multi_segment_transaction () =
  let log_disk, data_disk = make_disks () in
  run_epoch ~log_disk ~data_disk ~format:true (fun _sys cam client ->
      let server = Camelot.service_port cam in
      let b1 = ok_or_fail "map1" (Camelot.Client.map_segment client ~server "accounts" ~size:page) in
      let b2 = ok_or_fail "map2" (Camelot.Client.map_segment client ~server "audit" ~size:page) in
      let tid = ok_or_fail "begin" (Camelot.Client.begin_txn client ~server) in
      ok_or_fail "s1"
        (Camelot.Client.store client ~server tid ~segment:"accounts" ~base:b1 ~offset:0
           (Bytes.of_string "debit"));
      ok_or_fail "s2"
        (Camelot.Client.store client ~server tid ~segment:"audit" ~base:b2 ~offset:0
           (Bytes.of_string "entry"));
      ok_or_fail "commit" (Camelot.Client.commit client ~server tid);
      check Alcotest.string "seg1" "debit" (read_mem client ~addr:b1 ~len:5);
      check Alcotest.string "seg2" "entry" (read_mem client ~addr:b2 ~len:5));
  (* Both segments' committed data survive a crash. *)
  run_epoch ~log_disk ~data_disk ~format:false (fun _sys cam client ->
      let server = Camelot.service_port cam in
      let b1 = ok_or_fail "remap1" (Camelot.Client.map_segment client ~server "accounts" ~size:page) in
      let b2 = ok_or_fail "remap2" (Camelot.Client.map_segment client ~server "audit" ~size:page) in
      check Alcotest.string "seg1 recovered" "debit" (read_mem client ~addr:b1 ~len:5);
      check Alcotest.string "seg2 recovered" "entry" (read_mem client ~addr:b2 ~len:5))

let test_big_transaction_spans_log_blocks () =
  let log_disk, data_disk = make_disks () in
  let updates = 200 in
  run_epoch ~log_disk ~data_disk ~format:true (fun _sys cam client ->
      let server = Camelot.service_port cam in
      let base = ok_or_fail "map" (Camelot.Client.map_segment client ~server "s" ~size:(4 * page)) in
      let tid = ok_or_fail "begin" (Camelot.Client.begin_txn client ~server) in
      for i = 0 to updates - 1 do
        ok_or_fail "store"
          (Camelot.Client.store client ~server tid ~segment:"s" ~base ~offset:(i * 64)
             (Bytes.of_string (Printf.sprintf "u%04d" i)))
      done;
      ok_or_fail "commit" (Camelot.Client.commit client ~server tid));
  run_epoch ~log_disk ~data_disk ~format:false (fun _sys cam client ->
      Alcotest.(check bool) "all updates redone" true (Camelot.recovered_redo cam >= updates);
      let server = Camelot.service_port cam in
      let base = ok_or_fail "remap" (Camelot.Client.map_segment client ~server "s" ~size:(4 * page)) in
      for i = 0 to updates - 1 do
        check Alcotest.string
          (Printf.sprintf "update %d" i)
          (Printf.sprintf "u%04d" i)
          (read_mem client ~addr:(base + (i * 64)) ~len:5)
      done)

let test_store_spanning_pages () =
  let log_disk, data_disk = make_disks () in
  run_epoch ~log_disk ~data_disk ~format:true (fun _sys cam client ->
      let server = Camelot.service_port cam in
      let base = ok_or_fail "map" (Camelot.Client.map_segment client ~server "s" ~size:(2 * page)) in
      let tid = ok_or_fail "begin" (Camelot.Client.begin_txn client ~server) in
      (* A 32-byte update straddling the page boundary. *)
      let v = Bytes.init 32 (fun i -> Char.chr (65 + i)) in
      ok_or_fail "store"
        (Camelot.Client.store client ~server tid ~segment:"s" ~base ~offset:(page - 16) v);
      ok_or_fail "commit" (Camelot.Client.commit client ~server tid);
      check Alcotest.string "in memory" (Bytes.to_string v)
        (read_mem client ~addr:(base + page - 16) ~len:32));
  run_epoch ~log_disk ~data_disk ~format:false (fun _sys cam client ->
      let server = Camelot.service_port cam in
      let base = ok_or_fail "remap" (Camelot.Client.map_segment client ~server "s" ~size:(2 * page)) in
      let expect = String.init 32 (fun i -> Char.chr (65 + i)) in
      check Alcotest.string "both pages recovered" expect
        (read_mem client ~addr:(base + page - 16) ~len:32);
      Alcotest.(check bool) "redo covered the straddle" true (Camelot.recovered_redo cam >= 1))

let test_abort_after_steal () =
  (* Dirty uncommitted pages that reached the data disk through pageout
     (a steal) must still be undone by abort. *)
  let log_disk, data_disk = make_disks () in
  let config =
    { Kernel.default_config with Kernel.phys_frames = 80; Kernel.pager_timeout_us = 60_000_000.0 }
  in
  let sys = Kernel.create_system ~config () in
  let log_disk = Disk.reattach log_disk sys.Kernel.engine in
  let data_disk = Disk.reattach data_disk sys.Kernel.engine in
  let passed = ref false in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let cam = Camelot.start sys.Kernel.kernel ~log_disk ~data_disk ~format:true () in
      let client = Task.create sys.Kernel.kernel ~name:"txn-client" () in
      ignore
        (Thread.spawn client ~name:"txn-client.main" (fun () ->
             let server = Camelot.service_port cam in
             let npages = 120 in
             let base =
               ok_or_fail "map" (Camelot.Client.map_segment client ~server "s" ~size:(npages * page))
             in
             let tid = ok_or_fail "begin" (Camelot.Client.begin_txn client ~server) in
             for p = 0 to npages - 1 do
               ok_or_fail "store"
                 (Camelot.Client.store client ~server tid ~segment:"s" ~base ~offset:(p * page)
                    (Bytes.of_string "steal-me"))
             done;
             Alcotest.(check bool) "pageouts (steal) happened" true
               (Counters.get (Kernel.stats sys.Kernel.kernel) Vm_types.s_pageouts > 0);
             ok_or_fail "abort" (Camelot.Client.abort client ~server tid);
             (* Every page reads as zero again, even the stolen ones. *)
             for p = 0 to npages - 1 do
               check Alcotest.string
                 (Printf.sprintf "page %d undone" p)
                 (String.make 8 '\000')
                 (read_mem client ~addr:(base + (p * page)) ~len:8)
             done;
             passed := true)));
  Engine.run sys.Kernel.engine;
  Alcotest.(check bool) "scenario completed" true !passed

let () =
  Alcotest.run "camelot"
    [
      ( "recoverable-vm",
        [
          Alcotest.test_case "commit survives crash, uncommitted rolls back" `Quick
            test_commit_durable_across_crash;
          Alcotest.test_case "abort undoes through shared mapping" `Quick
            test_abort_undoes_in_memory;
          Alcotest.test_case "WAL ordering holds under memory pressure" `Quick
            test_wal_ordering_under_pressure;
          Alcotest.test_case "commit and abort interleaved" `Quick
            test_two_transactions_isolated_offsets;
          Alcotest.test_case "multi-segment transaction" `Quick test_multi_segment_transaction;
          Alcotest.test_case "big transaction spans log blocks" `Quick
            test_big_transaction_spans_log_blocks;
          Alcotest.test_case "abort undoes stolen pages" `Quick test_abort_after_steal;
          Alcotest.test_case "update spanning a page boundary" `Quick test_store_spanning_pages;
        ] );
    ]
