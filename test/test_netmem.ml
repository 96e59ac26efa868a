(* §4.2: consistent network shared memory across two hosts with
   independent kernels. *)

open Mach
module Netmem = Mach_pagers.Netmem

let check = Alcotest.check
let page = 4096

type env = {
  cluster : Kernel.cluster;
  nm : Netmem.t;
  region : Message.port;
  a : task;  (** client on host 0 (the server's host) *)
  b : task;  (** client on host 1 *)
  a_addr : int;
  b_addr : int;
}

let with_shared_region ~size f =
  let cluster = Kernel.create_cluster ~hosts:2 () in
  let result = ref None in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size in
      let a = Task.create cluster.Kernel.c_kernels.(0) ~name:"client-a" () in
      let b = Task.create cluster.Kernel.c_kernels.(1) ~name:"client-b" () in
      ignore
        (Thread.spawn a ~name:"client-a.main" (fun () ->
             (* Map at different addresses on the two clients, as the
                paper notes is allowed. *)
             let a_addr =
               Syscalls.vm_allocate_with_pager a ~size ~anywhere:true ~memory_object:region
                 ~offset:0 ()
             in
             let b_addr =
               Syscalls.vm_allocate_with_pager b ~size ~anywhere:true ~memory_object:region
                 ~offset:0 ()
             in
             result := Some (f { cluster; nm; region; a; b; a_addr; b_addr }))));
  Engine.run cluster.Kernel.c_engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "scenario did not complete (deadlock?)"

let read_str task ~addr ~len =
  match Syscalls.read_bytes task ~addr ~len () with
  | Ok b -> Bytes.to_string b
  | Error e -> Alcotest.failf "%s read: %a" (Task.name task) Access.pp_error e

let write_str task ~addr s =
  match Syscalls.write_bytes task ~addr (Bytes.of_string s) () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s write: %a" (Task.name task) Access.pp_error e

let test_read_sharing () =
  with_shared_region ~size:(2 * page) (fun env ->
      Netmem.write_initial env.nm ~region:env.region ~offset:0 (Bytes.of_string "shared-data");
      check Alcotest.string "A reads" "shared-data" (read_str env.a ~addr:env.a_addr ~len:11);
      check Alcotest.string "B reads" "shared-data" (read_str env.b ~addr:env.b_addr ~len:11);
      (* Both kernels now cache the page read-only. *)
      match Netmem.page_state env.nm ~region:env.region ~page:0 with
      | `Readers n -> check Alcotest.int "two reader kernels" 2 n
      | `Idle | `Writer | `Transition -> Alcotest.fail "expected readers")

let test_write_invalidates_readers () =
  with_shared_region ~size:page (fun env ->
      Netmem.write_initial env.nm ~region:env.region ~offset:0 (Bytes.of_string "vvvvv");
      ignore (read_str env.a ~addr:env.a_addr ~len:5);
      ignore (read_str env.b ~addr:env.b_addr ~len:5);
      let inv_before = Netmem.invalidations env.nm in
      (* A writes: B (the other reader) must be invalidated first. *)
      write_str env.a ~addr:env.a_addr "AAAAA";
      Alcotest.(check bool) "invalidation happened" true (Netmem.invalidations env.nm > inv_before);
      check Alcotest.string "A sees own write" "AAAAA" (read_str env.a ~addr:env.a_addr ~len:5);
      (* B re-reads: must observe A's committed write (A's dirty page
         is pulled back by the server when B's read invalidates A). *)
      check Alcotest.string "B sees A's write" "AAAAA" (read_str env.b ~addr:env.b_addr ~len:5))

let test_ping_pong () =
  with_shared_region ~size:page (fun env ->
      (* Alternating writers force repeated ownership transfer. *)
      write_str env.a ~addr:env.a_addr "a1";
      check Alcotest.string "b sees a1" "a1" (read_str env.b ~addr:env.b_addr ~len:2);
      write_str env.b ~addr:env.b_addr "b2";
      check Alcotest.string "a sees b2" "b2" (read_str env.a ~addr:env.a_addr ~len:2);
      write_str env.a ~addr:env.a_addr "a3";
      check Alcotest.string "b sees a3" "a3" (read_str env.b ~addr:env.b_addr ~len:2);
      Alcotest.(check bool) "write grants issued" true (Netmem.grants env.nm >= 3))

let test_different_pages_no_conflict () =
  with_shared_region ~size:(2 * page) (fun env ->
      (* Writers on different pages should not invalidate each other. *)
      write_str env.a ~addr:env.a_addr "page0-by-a";
      write_str env.b ~addr:(env.b_addr + page) "page1-by-b";
      let inv = Netmem.invalidations env.nm in
      write_str env.a ~addr:env.a_addr "page0-again";
      write_str env.b ~addr:(env.b_addr + page) "page1-again";
      check Alcotest.int "no extra invalidations" inv (Netmem.invalidations env.nm);
      check Alcotest.string "b sees a's page0" "page0-again"
        (read_str env.b ~addr:env.b_addr ~len:11))

(* How much [f] moves each registry counter in [keys] on [host]. *)
let moved env host keys f =
  let read () =
    let snap = Metrics.snapshot (Kernel.metrics env.cluster.Kernel.c_kernels.(host)) in
    List.map (fun k -> int_of_float (Metrics.get snap k)) keys
  in
  let before = read () in
  f ();
  List.map2 ( - ) (read ()) before

(* Li & Hudak: a read against a writer leaves the writer a read-only
   copy. B keeps its page through A's read, rereads it without the
   manager, and a later write only needs the lock lifted. *)
let test_read_downgrades_writer () =
  with_shared_region ~size:page (fun env ->
      write_str env.b ~addr:env.b_addr "b-wrote";
      let flushes = Netmem.invalidations env.nm in
      check Alcotest.string "A reads B's write" "b-wrote" (read_str env.a ~addr:env.a_addr ~len:7);
      (match Netmem.page_state env.nm ~region:env.region ~page:0 with
      | `Readers n -> check Alcotest.int "writer kept a copy" 2 n
      | `Idle | `Writer | `Transition -> Alcotest.fail "expected readers");
      check Alcotest.int "no flush" flushes (Netmem.invalidations env.nm);
      check Alcotest.int "one downgrade" 1 (Netmem.downgrades env.nm);
      check Alcotest.(list int) "B's reread: data_requests, pageins" [ 0; 0 ]
        (moved env 1 [ "vm.data_requests"; "vm.pageins" ] (fun () ->
             check Alcotest.string "B rereads" "b-wrote" (read_str env.b ~addr:env.b_addr ~len:7)));
      check Alcotest.(list int) "B's rewrite: unlock_requests, pageins" [ 1; 0 ]
        (moved env 1 [ "vm.unlock_requests"; "vm.pageins" ] (fun () ->
             write_str env.b ~addr:env.b_addr "b-again"));
      check Alcotest.string "A reads B's new bytes" "b-again" (read_str env.a ~addr:env.a_addr ~len:7))

(* Only the page a thread waits on downgrades its writer. A's read of
   page 0 clusters over page 1, and that speculative neighbour still
   revokes B's copy, so B pays for A's fault on both pages. *)
let test_read_cluster_neighbour_revokes_writer () =
  with_shared_region ~size:(4 * page) (fun env ->
      write_str env.b ~addr:env.b_addr "b-page0";
      write_str env.b ~addr:(env.b_addr + page) "b-page1";
      let flushes = Netmem.invalidations env.nm in
      check Alcotest.string "A reads page 0" "b-page0" (read_str env.a ~addr:env.a_addr ~len:7);
      Engine.sleep 50_000.0;
      let state pg = Netmem.page_state env.nm ~region:env.region ~page:pg in
      (match (state 0, state 1) with
      | `Readers 2, `Readers 1 -> ()
      | _ -> Alcotest.fail "expected page 0 shared by A and B, page 1 held by A alone");
      check Alcotest.int "one downgrade" 1 (Netmem.downgrades env.nm);
      check Alcotest.int "one flush" (flushes + 1) (Netmem.invalidations env.nm);
      check Alcotest.(list int) "A reads page 1: data_requests" [ 0 ]
        (moved env 0 [ "vm.data_requests" ] (fun () ->
             check Alcotest.string "A's copy of page 1" "b-page1"
               (read_str env.a ~addr:(env.a_addr + page) ~len:7)));
      check Alcotest.(list int) "B rereads pages 0 and 1: data_requests" [ 1 ]
        (moved env 1 [ "vm.data_requests" ] (fun () ->
             ignore (read_str env.b ~addr:env.b_addr ~len:7);
             ignore (read_str env.b ~addr:(env.b_addr + page) ~len:7))))

(* A write fault clusters like a read, but only its demanded page is
   the write. A's write to page 0 pulls page 1 in as a read: B, which
   reads page 1, keeps its copy and is never flushed. *)
let test_write_cluster_neighbour_is_a_read () =
  with_shared_region ~size:(2 * page) (fun env ->
      Netmem.write_initial env.nm ~region:env.region ~offset:page (Bytes.of_string "page1");
      check Alcotest.string "B reads page 1" "page1"
        (read_str env.b ~addr:(env.b_addr + page) ~len:5);
      let flushes = Netmem.invalidations env.nm in
      write_str env.a ~addr:env.a_addr "a-page0";
      Engine.sleep 50_000.0;
      (match Netmem.page_state env.nm ~region:env.region ~page:1 with
      | `Readers _ -> ()
      | `Idle | `Writer | `Transition -> Alcotest.fail "expected page 1 to stay shared read-only");
      check Alcotest.int "no flush" flushes (Netmem.invalidations env.nm);
      check Alcotest.(list int) "B rereads page 1: data_requests" [ 0 ]
        (moved env 1 [ "vm.data_requests" ] (fun () ->
             check Alcotest.string "B's copy" "page1"
               (read_str env.b ~addr:(env.b_addr + page) ~len:5))))

let test_unmap_cleans_up_client () =
  with_shared_region ~size:page (fun env ->
      Netmem.write_initial env.nm ~region:env.region ~offset:0 (Bytes.of_string "zzz");
      ignore (read_str env.a ~addr:env.a_addr ~len:3);
      ignore (read_str env.b ~addr:env.b_addr ~len:3);
      (* B drops its mapping entirely: its kernel terminates the object
         and the server hears the request port die. *)
      Syscalls.vm_deallocate env.b ~addr:env.b_addr ~size:page;
      Engine.sleep 50_000.0;
      (* A can still write without waiting on the departed kernel. *)
      write_str env.a ~addr:env.a_addr "AAA";
      check Alcotest.string "a still works" "AAA" (read_str env.a ~addr:env.a_addr ~len:3))

let test_write_back_on_unmap () =
  with_shared_region ~size:page (fun env ->
      (* A writes and unmaps without anyone else reading: the dirty page
         must flow back to the server (terminate cleans dirty pages). *)
      write_str env.a ~addr:env.a_addr "precious";
      Syscalls.vm_deallocate env.a ~addr:env.a_addr ~size:page;
      Engine.sleep 100_000.0;
      check Alcotest.string "server received the data" "precious"
        (Bytes.to_string (Netmem.read_authoritative env.nm ~region:env.region ~offset:0 ~len:8)))

let test_interleaved_stress () =
  with_shared_region ~size:(4 * page) (fun env ->
      (* Concurrent mixed traffic on disjoint pages, then a strict
         cross-check; coherence must hold page-by-page. *)
      let fin_a = Ivar.create () and fin_b = Ivar.create () in
      ignore
        (Thread.spawn env.a ~name:"stress-a" (fun () ->
             for round = 0 to 9 do
               write_str env.a ~addr:env.a_addr (Printf.sprintf "a%02d" round);
               ignore (read_str env.a ~addr:(env.a_addr + page) ~len:3)
             done;
             Ivar.fill fin_a ()));
      ignore
        (Thread.spawn env.b ~name:"stress-b" (fun () ->
             for round = 0 to 9 do
               write_str env.b ~addr:(env.b_addr + page) (Printf.sprintf "b%02d" round);
               ignore (read_str env.b ~addr:env.b_addr ~len:3)
             done;
             Ivar.fill fin_b ()));
      Ivar.read fin_a;
      Ivar.read fin_b;
      check Alcotest.string "b sees a's last" "a09" (read_str env.b ~addr:env.b_addr ~len:3);
      check Alcotest.string "a sees b's last" "b09" (read_str env.a ~addr:(env.a_addr + page) ~len:3))

(* Regression: a writer waiting for the manager's unlock while its page
   is flushed out from under it must refault, not time out (found by a
   3-host contention storm). *)
let test_three_host_contention_storm () =
  let pages = 4 in
  let cluster = Kernel.create_cluster ~hosts:3 () in
  let finished = ref 0 in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:(pages * page) in
      for host = 0 to 2 do
        let task =
          Task.create cluster.Kernel.c_kernels.(host) ~name:(Printf.sprintf "storm-%d" host) ()
        in
        ignore
          (Thread.spawn task ~name:(Printf.sprintf "storm-%d.main" host) (fun () ->
               let addr =
                 Syscalls.vm_allocate_with_pager task ~size:(pages * page) ~anywhere:true
                   ~memory_object:region ~offset:0 ()
               in
               let rng = Mach_util.Rng.create ((host * 7) + 3) in
               for _ = 0 to 199 do
                 let p = Mach_util.Rng.int rng pages in
                 let w = Mach_util.Rng.float rng 1.0 < 0.1 in
                 match
                   Syscalls.touch task ~addr:(addr + (p * page)) ~write:w
                     ~policy:(Fault.Abort_after 10_000_000.0) ()
                 with
                 | Ok () -> ()
                 | Error e -> Alcotest.failf "storm access: %a" Access.pp_error e
               done;
               incr finished))
      done);
  Engine.run cluster.Kernel.c_engine;
  check Alcotest.int "all three hosts completed" 3 !finished

(* Regression: every fault that waits on the manager arms the default
   pager timeout (2 s), and the fault ends milliseconds later. The
   timer must leave the event queue with the wait, or the queue gains
   one dead timeout per fault until the first deadlines pass (over 200
   here). What stays queued is live work (about 10 events) plus the 2 s
   placeholder-reclaim timers of clustered requests (about 20 more over
   this sub-second run). *)
let test_fault_timers_die_with_their_wait () =
  let pages = 4 and touches = 100 in
  let cluster = Kernel.create_cluster ~hosts:3 () in
  let engine = cluster.Kernel.c_engine in
  let done_ = ref 0 and peak = ref 0 in
  Engine.spawn engine ~name:"setup" (fun () ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:(pages * page) in
      for host = 0 to 2 do
        let task =
          Task.create cluster.Kernel.c_kernels.(host) ~name:(Printf.sprintf "timers-%d" host) ()
        in
        ignore
          (Thread.spawn task ~name:(Printf.sprintf "timers-%d.main" host) (fun () ->
               let addr =
                 Syscalls.vm_allocate_with_pager task ~size:(pages * page) ~anywhere:true
                   ~memory_object:region ~offset:0 ()
               in
               let rng = Mach_util.Rng.create ((host * 7) + 3) in
               for _ = 1 to touches do
                 let p = Mach_util.Rng.int rng pages in
                 let write = Mach_util.Rng.float rng 1.0 < 0.3 in
                 (match Syscalls.touch task ~addr:(addr + (p * page)) ~write () with
                 | Ok () -> ()
                 | Error e -> Alcotest.failf "touch: %a" Access.pp_error e);
                 incr done_;
                 peak := max !peak (Engine.pending engine)
               done))
      done);
  Engine.run engine;
  check Alcotest.int "every touch completed" (3 * touches) !done_;
  if !peak > 64 then Alcotest.failf "%d events queued after a fault (at most 64 expected)" !peak

(* Regression: read_bytes/write_bytes used the frame [touch] returned,
   but touch's closing charge can yield to a coherence flush that frees
   that frame ("Phys_mem: frame not allocated"). A seeded 3-host storm
   of word loads and stores on two CPUs per host lands in that window;
   afterwards every host must read back the same bytes, and each host's
   own 8-byte slot must hold the last value it stored there. *)
let test_byte_access_storm () =
  let pages = 2 in
  let config =
    { Kernel.default_config with Kernel.params = { Machine.hypercube with Machine.cpus = 2 } }
  in
  let cluster = Kernel.create_cluster ~hosts:3 ~config () in
  let policy = Fault.Abort_after 10_000_000.0 in
  let fail what e = Alcotest.failf "storm %s: %a" what Access.pp_error e in
  let views = Array.make 3 "" in
  let last = Array.make_matrix 3 pages 0L in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:(pages * page) in
      let done_ = Array.init 3 (fun _ -> Ivar.create ()) in
      let addrs = Array.make 3 0 in
      let tasks =
        Array.init 3 (fun host ->
            Task.create cluster.Kernel.c_kernels.(host) ~name:(Printf.sprintf "bytes-%d" host) ())
      in
      Array.iteri
        (fun host task ->
          ignore
            (Thread.spawn task ~name:(Printf.sprintf "bytes-%d.main" host) (fun () ->
                 let addr =
                   Syscalls.vm_allocate_with_pager task ~size:(pages * page) ~anywhere:true
                     ~memory_object:region ~offset:0 ()
                 in
                 addrs.(host) <- addr;
                 let rng = Mach_util.Rng.create ((host * 7) + 3) in
                 for i = 0 to 299 do
                   let pg = Mach_util.Rng.int rng pages in
                   let a = addr + (pg * page) + (host * 8) in
                   if Mach_util.Rng.float rng 1.0 < 0.2 then begin
                     let b = Bytes.create 8 in
                     Bytes.set_int64_le b 0 (Int64.of_int i);
                     match Syscalls.write_bytes task ~addr:a b ~policy () with
                     | Ok () -> last.(host).(pg) <- Int64.of_int i
                     | Error e -> fail "store" e
                   end
                   else
                     match Syscalls.read_bytes task ~addr:a ~len:8 ~policy () with
                     | Ok _ -> ()
                     | Error e -> fail "load" e
                 done;
                 Ivar.fill done_.(host) ())))
        tasks;
      Array.iter Ivar.read done_;
      (* One host at a time: the final views must agree. *)
      Array.iteri
        (fun host task ->
          let addr = addrs.(host) in
          let swept = Ivar.create () in
          ignore
            (Thread.spawn task ~name:(Printf.sprintf "bytes-%d.sweep" host) (fun () ->
                 views.(host) <-
                   String.concat ""
                     (List.init pages (fun pg -> read_str task ~addr:(addr + (pg * page)) ~len:24));
                 Ivar.fill swept ()));
          Ivar.read swept)
        tasks);
  Engine.run cluster.Kernel.c_engine;
  Alcotest.(check bool) "every host swept" true (views.(0) <> "");
  check Alcotest.string "host 1 agrees with host 0" views.(0) views.(1);
  check Alcotest.string "host 2 agrees with host 0" views.(0) views.(2);
  for host = 0 to 2 do
    for pg = 0 to pages - 1 do
      check Alcotest.int64
        (Printf.sprintf "host %d's last store to page %d" host pg)
        last.(host).(pg)
        (String.get_int64_le views.(0) ((pg * 24) + (host * 8)))
    done
  done

let () =
  Alcotest.run "netmem"
    [
      ( "coherence",
        [
          Alcotest.test_case "read sharing across hosts" `Quick test_read_sharing;
          Alcotest.test_case "write invalidates readers" `Quick test_write_invalidates_readers;
          Alcotest.test_case "ownership ping-pong" `Quick test_ping_pong;
          Alcotest.test_case "distinct pages are independent" `Quick test_different_pages_no_conflict;
          Alcotest.test_case "a read downgrades the writer" `Quick test_read_downgrades_writer;
          Alcotest.test_case "a cluster neighbour revokes the writer" `Quick
            test_read_cluster_neighbour_revokes_writer;
          Alcotest.test_case "a write cluster neighbour is a read" `Quick
            test_write_cluster_neighbour_is_a_read;
          Alcotest.test_case "unmap cleans up a client" `Quick test_unmap_cleans_up_client;
          Alcotest.test_case "dirty data written back on unmap" `Quick test_write_back_on_unmap;
          Alcotest.test_case "interleaved stress stays coherent" `Quick test_interleaved_stress;
          Alcotest.test_case "three-host contention storm" `Quick test_three_host_contention_storm;
          Alcotest.test_case "fault timers die with their wait" `Quick
            test_fault_timers_die_with_their_wait;
          Alcotest.test_case "byte loads/stores survive flushes" `Quick test_byte_access_storm;
        ] );
    ]
