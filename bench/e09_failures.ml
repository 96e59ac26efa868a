(* E9 — §6: the problems of external memory management, and the
   kernel's defenses. Part one injects each local failure the paper
   lists (unresponsive, dying, hoarding, flooding managers) and reports
   the containment mechanism that handled it. Part two is the chaos
   suite: the same external-pager machinery driven over a faulty
   NORMA fabric — seeded loss, duplicate storms, partitions, and
   whole-host crashes — to show the reliable channel layer and the
   failure-recovery paths keep every thread accounted for. *)

open Mach
open Common
module Mos = Memory_object_server
module Rt = Pager_runtime
module Chaos = Mach_sim.Chaos
module HwNet = Mach_hw.Net
module IpcContext = Mach_ipc.Context
module Netmem = Mach_pagers.Netmem

let page = 4096

(* Serve [policy] from a new manager task holding one registered memory
   object. A misbehaving manager speaks the same protocol as a good one;
   only its policy differs. *)
let serve_object ?service_threads kernel ~name policy =
  let rt, srv = Mos.serve ?service_threads (Task.create kernel ~name ()) policy in
  let memory_object = Mos.create_memory_object srv () in
  ignore (Rt.register rt ~memory_object ());
  (rt, srv, memory_object)

(* A manager that never answers pager_data_request: a runtime policy
   whose every page read defers forever. The runtime still counts the
   requests it ignored in its reg.pager counters, which the stats table
   shows. *)
let silent_manager kernel ~name =
  serve_object kernel ~name
    {
      Rt.default_policy with
      Rt.p_read = (fun _ _ ~request:_ ~page:_ ~npages:_ ~desired_access:_ -> Rt.Defer);
    }

(* Scenario 1/2: thread blocked on data from a hostile manager; the
   §6.2.1 options — abort after timeout, or substitute zeroes. *)
let run_unresponsive ~name ~policy =
  run_system (fun sys task ->
      let _rt, _srv, memory_object = silent_manager sys.Kernel.kernel ~name in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(4 * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      let engine = sys.Kernel.engine in
      timed engine (fun () -> Syscalls.read_bytes task ~addr ~len:8 ~policy ()))

(* Scenario 3: the manager dies mid-fault. No caller timeout is
   involved: the kernel's pager-death handler resolves every
   outstanding placeholder page the moment the object port dies —
   zero-fill for anonymous-style objects, a fault error for file-backed
   ones. The faulting thread may therefore wait without any timeout at
   all and still come back promptly. *)
let run_death ~kill_after_us =
  run_system (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let _rt, srv, memory_object = silent_manager kernel ~name:"doomed-mgr" in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(4 * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      let engine = sys.Kernel.engine in
      Engine.spawn engine ~name:"killer" (fun () ->
          Engine.sleep kill_after_us;
          Mos.stop srv;
          Port.destroy memory_object);
      let r, elapsed =
        timed engine (fun () ->
            Syscalls.read_bytes task ~addr ~len:8 ~policy:Fault.Wait_forever ())
      in
      let st = Kernel.stats kernel in
      ( r,
        elapsed,
        ( Counters.get st Vm_types.s_pager_deaths,
          Counters.get st Vm_types.s_death_errors,
          Counters.get st Vm_types.s_death_zero_fills ) ))

(* Scenario 4: manager that accepts pager_data_write but never releases
   the data — §6.2.2 double paging must rescue the frames. The runtime
   releases a run when [p_write] returns, so this policy never returns:
   it declares every page unavailable and parks each write forever.
   Each held run parks one service thread, hence one thread per page
   plus one to keep answering data requests. *)
let run_hoarder () =
  let config = { Kernel.default_config with Kernel.phys_frames = 128 } in
  run_system ~config (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let npages = 200 in
      let policy =
        {
          Rt.default_policy with
          Rt.p_write = (fun _ _ ~offset:_ ~data:_ -> Ivar.read (Ivar.create ()));
        }
      in
      let _rt, _srv, memory_object =
        serve_object ~service_threads:(npages + 1) kernel ~name:"hoarder-mgr" policy
      in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(npages * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      (* Dirty more pages than physical memory: pageout hands them to
         the hoarding manager. A failed write is counted, not fatal, so
         a starved faulter shows up as a gate failure. *)
      let write_failures = ref 0 in
      for i = 0 to npages - 1 do
        match
          Syscalls.write_bytes task ~addr:(addr + (i * page)) (Bytes.make 32 'd')
            ~policy:(Fault.Abort_after 60_000_000.0) ()
        with
        | Ok () -> ()
        | Error _ -> incr write_failures
      done;
      (* Let the release timeouts fire. *)
      Engine.sleep 2_000_000.0;
      let stats = Kernel.stats kernel in
      let still_alive =
        match Syscalls.vm_allocate task ~size:(4 * page) ~anywhere:true () with
        | _addr -> (
          match Syscalls.write_bytes task ~addr:_addr (Bytes.make 16 'x') () with
          | Ok () -> true
          | Error _ -> false)
        | exception _ -> false
      in
      (Counters.get stats Vm_types.s_pageout_to_default, still_alive, !write_failures))

(* Scenario 5: manager floods the kernel with unsolicited pre-paged
   data; the kernel only accepts while unreserved frames exist. The
   policy reads one page per request and answers it itself, with a
   colossal unsolicited blob starting at 0. *)
let run_flooder () =
  let config = { Kernel.default_config with Kernel.phys_frames = 128 } in
  run_system ~config (fun sys task ->
      let kernel = sys.Kernel.kernel in
      let offered = 4096 in
      let policy =
        {
          Rt.default_policy with
          Rt.p_reshape = (fun _ _ ~first ~npages:_ -> (first, 1));
          Rt.p_read =
            (fun rt _ ~request ~page:_ ~npages:_ ~desired_access:_ ->
              Rt.data_provided rt ~request ~offset:0 ~data:(Bytes.make (offered * page) 'F')
                ~lock_value:Prot.none;
              Rt.Defer);
        }
      in
      let _rt, _srv, memory_object = serve_object kernel ~name:"flood-mgr" policy in
      let addr =
        Syscalls.vm_allocate_with_pager task ~size:(offered * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      ignore (Syscalls.read_bytes task ~addr ~len:8 ~policy:(Fault.Abort_after 10_000_000.0) ());
      Engine.sleep 100_000.0;
      let free_after = Kernel.free_frames kernel in
      let reserved = kernel.Ktypes.k_kctx.Kctx.reserved_frames in
      let can_still_allocate =
        match Syscalls.vm_allocate task ~size:page ~anywhere:true () with
        | _ -> true
        | exception _ -> false
      in
      (offered, free_after, reserved, can_still_allocate))

(* --- the chaos suite ----------------------------------------------------- *)

let chaos_seed = 20260808

(* Build a cluster under a seeded fault plan and run [setup] on a
   simulated thread. [setup] spawns the workload and returns a closure
   that reads the outcome after the engine quiesces — so a worker that
   hangs shows up as a completion shortfall instead of deadlocking the
   harness. *)
let run_chaos ~hosts ?(plan = Chaos.perfect) ?(seed = chaos_seed) setup =
  let chaos = Chaos.create ~seed () in
  Chaos.set_default_plan chaos plan;
  let cluster = Kernel.create_cluster ~hosts ~chaos () in
  let finish = ref None in
  Engine.spawn cluster.Kernel.c_engine ~name:"chaos-setup" (fun () ->
      finish := Some (setup cluster chaos));
  Engine.run cluster.Kernel.c_engine;
  Array.iter note_registry cluster.Kernel.c_kernels;
  match !finish with
  | Some f -> f ()
  | None -> failwith "E9 chaos setup never ran"

type chaos_worker = {
  cw_done : bool ref;
  cw_finish : float ref;  (* Engine.now at completion *)
  cw_failures : int ref;  (* aborted or mis-verified accesses *)
}

(* One remote client: write a marker into every page of [region], read
   each back, and verify — every access a cross-host pager RPC. *)
let spawn_chaos_client cluster ~host ~region ~npages ~value =
  let w = { cw_done = ref false; cw_finish = ref 0.0; cw_failures = ref 0 } in
  let engine = cluster.Kernel.c_engine in
  let task =
    Task.create cluster.Kernel.c_kernels.(host) ~name:(Printf.sprintf "chaos-c%d" host) ()
  in
  ignore
    (Thread.spawn task ~name:(Printf.sprintf "chaos-c%d.main" host) (fun () ->
         let addr =
           Syscalls.vm_allocate_with_pager task ~size:(npages * page) ~anywhere:true
             ~memory_object:region ~offset:0 ()
         in
         let policy = Fault.Abort_after 30_000_000.0 in
         for i = 0 to npages - 1 do
           let payload = Bytes.make 16 value in
           (match Syscalls.write_bytes task ~addr:(addr + (i * page)) payload ~policy () with
           | Ok () -> ()
           | Error _ -> incr w.cw_failures);
           match Syscalls.read_bytes task ~addr:(addr + (i * page)) ~len:16 ~policy () with
           | Ok b when Bytes.equal b payload -> ()
           | Ok _ | Error _ -> incr w.cw_failures
         done;
         w.cw_done := true;
         w.cw_finish := Engine.now engine));
  w

let blocked w = if !(w.cw_done) then 0 else 1

(* Loss sweep: the remote-pager workload at increasing drop rates. The
   channel layer must deliver every page exactly once, at the cost of
   retransmissions and time. *)
let run_loss_point ~drop ~npages =
  run_chaos ~hosts:2 ~plan:{ Chaos.perfect with Chaos.drop } (fun cluster _chaos ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:(npages * page) in
      let w = spawn_chaos_client cluster ~host:1 ~region ~npages ~value:'L' in
      fun () ->
        ( blocked w,
          !(w.cw_failures),
          !(w.cw_finish),
          Counters.value (HwNet.stats cluster.Kernel.c_net) "retransmits",
          Counters.value (HwNet.stats cluster.Kernel.c_net) "dropped" ))

(* Duplicate storm: at-most-once effects despite every other packet
   arriving twice (plus background loss so acks get lost too). *)
let run_duplicate_storm ~npages =
  run_chaos ~hosts:2
    ~plan:{ Chaos.perfect with Chaos.duplicate = 0.3; drop = 0.05 }
    (fun cluster chaos ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:(npages * page) in
      let w = spawn_chaos_client cluster ~host:1 ~region ~npages ~value:'D' in
      fun () ->
        let dup_dropped =
          Counters.value (IpcContext.chan_stats cluster.Kernel.c_ctx) "dup_dropped"
        in
        ( blocked w,
          !(w.cw_failures),
          Counters.value (Chaos.stats chaos) "duplicated",
          dup_dropped ))

(* Partition-and-heal: cut the link mid-workload for [dur_us], well
   inside the retry budget; retransmission must carry every in-flight
   message across the heal. Convergence = how long after the heal the
   workload needed to finish. *)
let run_partition_heal ~npages ~at_us ~dur_us =
  run_chaos ~hosts:2 (fun cluster chaos ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:(npages * page) in
      let w = spawn_chaos_client cluster ~host:1 ~region ~npages ~value:'P' in
      let heal_t = ref 0.0 in
      Engine.spawn cluster.Kernel.c_engine ~name:"partitioner" (fun () ->
          Engine.sleep at_us;
          Chaos.partition chaos 0 1;
          Engine.sleep dur_us;
          Chaos.heal chaos 0 1;
          heal_t := Engine.now cluster.Kernel.c_engine);
      fun () ->
        let s = Chaos.stats chaos in
        ( blocked w,
          !(w.cw_failures),
          Float.max 0.0 (!(w.cw_finish) -. !heal_t),
          Counters.value s "partition_drops" ))

(* Mid-data_write host crash: the manager's host dies while the client
   is dirtying pages through it. Proxy-port death must reach the
   client's kernel (pager-death path: resolve placeholders, fail fast)
   so the client finishes — with errors, never a hang. *)
let run_crash_mid_write ~npages ~kill_after_us =
  run_chaos ~hosts:2 (fun cluster chaos ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(1) () in
      let region = Netmem.create_region nm ~size:(npages * page) in
      let w = spawn_chaos_client cluster ~host:0 ~region ~npages ~value:'C' in
      Engine.spawn cluster.Kernel.c_engine ~name:"host-killer" (fun () ->
          Engine.sleep kill_after_us;
          Chaos.crash_host chaos 1);
      fun () ->
        let st = Kernel.stats cluster.Kernel.c_kernels.(0) in
        ( blocked w,
          !(w.cw_failures),
          Counters.get st Vm_types.s_pager_deaths,
          Counters.value (Chaos.stats chaos) "crash_drops" ))

(* Netmem ownership migration under loss: two clients ping-pong write
   grants on one page over a 10%-drop fabric, then one rereads the
   final value through the coherence protocol. *)
let run_migration_under_loss ~rounds ~drop =
  run_chaos ~hosts:3 ~plan:{ Chaos.perfect with Chaos.drop } (fun cluster _chaos ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:page in
      let gates = Array.init (rounds + 1) (fun _ -> Ivar.create ()) in
      Ivar.fill gates.(0) ();
      let completed = ref 0 in
      let failures = ref 0 in
      let final_ok = ref false in
      let finish = ref 0.0 in
      let last_value = Char.chr (64 + rounds) in
      let spawn_client host parity =
        let task =
          Task.create cluster.Kernel.c_kernels.(host) ~name:(Printf.sprintf "mig-%d" host) ()
        in
        ignore
          (Thread.spawn task ~name:(Printf.sprintf "mig-%d.main" host) (fun () ->
               let addr =
                 Syscalls.vm_allocate_with_pager task ~size:page ~anywhere:true
                   ~memory_object:region ~offset:0 ()
               in
               let policy = Fault.Abort_after 30_000_000.0 in
               for r = 0 to rounds - 1 do
                 if r mod 2 = parity then begin
                   Ivar.read gates.(r);
                   (match
                      Syscalls.write_bytes task ~addr (Bytes.make 8 (Char.chr (65 + r))) ~policy ()
                    with
                   | Ok () -> ()
                   | Error _ -> incr failures);
                   Ivar.fill gates.(r + 1) ()
                 end
               done;
               if parity = 0 then begin
                 (* Reread through the protocol: forces the last writer's
                    copy home and proves coherence survived the loss. *)
                 Ivar.read gates.(rounds);
                 (match Syscalls.read_bytes task ~addr ~len:1 ~policy () with
                 | Ok b -> final_ok := Bytes.get b 0 = last_value
                 | Error _ -> incr failures)
               end;
               incr completed;
               finish := Engine.now cluster.Kernel.c_engine))
      in
      spawn_client 1 0;
      spawn_client 2 1;
      fun () ->
        ( 2 - !completed,
          !failures,
          (if !final_ok then 1 else 0),
          Netmem.invalidations nm,
          !finish ))

let loss_sweep = [ 0.0; 0.05; 0.10; 0.20 ]
let loss_key drop name = Printf.sprintf "loss%.0f_%s" (drop *. 100.0) name

let body scale =
  let quick = scale = Small in
  let errored = function Ok _ -> 0.0 | Error _ -> 1.0 and b v = if v then 1.0 else 0.0 in
  (* Part one: the §6 local failures. *)
  let timeout = if quick then 50_000.0 else 500_000.0 in
  let kill_after = if quick then 20_000.0 else 100_000.0 in
  let abort_result, abort_us =
    run_unresponsive ~name:"silent-abort-mgr" ~policy:(Fault.Abort_after timeout)
  in
  let zf_result, zf_us =
    run_unresponsive ~name:"silent-zero-fill-mgr" ~policy:(Fault.Zero_fill_after timeout)
  in
  let zeroed = match zf_result with Ok b -> Bytes.for_all (fun c -> c = '\000') b | Error _ -> false in
  let death_result, death_us, (pager_deaths, death_errors, death_zero_fills) =
    run_death ~kill_after_us:kill_after
  in
  let rescued, alive, write_failures = run_hoarder () in
  let offered, free_after, reserved, can_alloc = run_flooder () in
  (* Part two: the chaos suite. *)
  let npages = if quick then 8 else 32 in
  let sweep =
    List.concat_map
      (fun drop ->
        let b, f, t, rx, drops = run_loss_point ~drop ~npages in
        let k = loss_key drop in
        [ (k "blocked", fi b); (k "failures", fi f); (k "completion_us", t);
          (k "retransmits", fi rx); (k "wire_drops", fi drops) ])
      loss_sweep
  in
  let sum field =
    List.fold_left (fun a (k, v) -> if String.ends_with ~suffix:field k then a +. v else a) 0.0 sweep
  in
  let dup_blocked, dup_failures, dups_injected, dup_dropped = run_duplicate_storm ~npages in
  let cut_us = if quick then 30_000.0 else 100_000.0 in
  let part_blocked, part_failures, convergence_us, partition_drops =
    if quick then run_partition_heal ~npages ~at_us:10_000.0 ~dur_us:cut_us
    else run_partition_heal ~npages:64 ~at_us:20_000.0 ~dur_us:cut_us
  in
  let crash_blocked, crash_failures, crash_pager_deaths, crash_drops =
    run_crash_mid_write ~npages ~kill_after_us:(if quick then 10_000.0 else 25_000.0)
  in
  let mig_blocked, mig_failures, mig_coherent, mig_invals, _ =
    run_migration_under_loss ~rounds:(if quick then 4 else 8) ~drop:0.10
  in
  [
    ("timeout_us", timeout);
    ("abort_blocked_us", abort_us);
    ("abort_errored", errored abort_result);
    ("zero_fill_blocked_us", zf_us);
    ("zero_fill_zeroed", b zeroed);
    ("kill_after_us", kill_after);
    ("death_blocked_us", death_us);
    ("death_errored", errored death_result);
    ("pager_deaths", fi pager_deaths);
    ("death_errors", fi death_errors);
    ("death_zero_fills", fi death_zero_fills);
    ("hoarder_rescued", fi rescued);
    ("hoarder_alive", b alive);
    ("hoarder_write_failures", fi write_failures);
    ("flooder_offered", fi offered);
    ("flooder_free_after", fi free_after);
    ("flooder_reserved", fi reserved);
    ("flooder_can_alloc", b can_alloc);
    (* chaos suite *)
    ("chaos_pages", fi npages);
    ( "blocked_workers",
      sum "_blocked" +. fi (dup_blocked + part_blocked + crash_blocked + mig_blocked) );
    ("sweep_failures", sum "_failures");
  ]
  @ sweep
  @ [
      ("dup_injected", fi dups_injected);
      ("dup_dropped", fi dup_dropped);
      ("dup_failures", fi (dup_blocked + dup_failures));
      ("partition_cut_us", cut_us);
      ("partition_convergence_us", convergence_us);
      ("partition_drops", fi partition_drops);
      ("partition_failures", fi (part_blocked + part_failures));
      ("crash_blocked", fi crash_blocked);
      ("crash_pager_deaths", fi crash_pager_deaths);
      ("crash_drops", fi crash_drops);
      ("crash_aborted_accesses", fi crash_failures);
      ("migration_coherent", fi mig_coherent);
      ("migration_invalidations", fi mig_invals);
      ("migration_failures", fi (mig_blocked + mig_failures));
    ]

let tables pairs =
  let g = get pairs and n key = geti pairs key in
  let ms key = g key /. 1000.0 in
  let t =
    Table.create ~title:"E9: data manager failure injection (Section 6)"
      ~columns:[ "failure"; "defense"; "outcome"; "metric" ]
  in
  let either key yes no = if g key = 1.0 then yes else no in
  Table.row t
    [
      "manager never returns data";
      Printf.sprintf "abort request after %.0f ms timeout" (ms "timeout_us");
      either "abort_errored" "fault aborted, error to thread" "UNEXPECTED";
      Printf.sprintf "blocked %.0f ms" (ms "abort_blocked_us");
    ];
  Table.row t
    [
      "manager never returns data";
      "substitute zero-filled memory after timeout";
      either "zero_fill_zeroed" "zeroes delivered, thread continues" "UNEXPECTED";
      Printf.sprintf "blocked %.0f ms" (ms "zero_fill_blocked_us");
    ];
  Table.row t
    [
      "manager dies mid-fault (object port death)";
      "kernel pager-death handler resolves placeholders";
      either "death_errored" "deterministic fault error, no timer involved" "UNEXPECTED";
      Printf.sprintf "blocked %.0f ms (killed at %.0f ms); deaths=%d errors=%d zero_fills=%d"
        (ms "death_blocked_us") (ms "kill_after_us") (n "pager_deaths") (n "death_errors")
        (n "death_zero_fills");
    ];
  Table.row t
    [
      "manager fails to free flushed data";
      "double paging to the default pager (s6.2.2)";
      either "hoarder_alive" "kernel kept allocating" "KERNEL STARVED";
      Printf.sprintf "%d frames rescued, %d writes failed" (n "hoarder_rescued")
        (n "hoarder_write_failures");
    ];
  Table.row t
    [
      "manager floods the cache";
      "unsolicited data accepted only while frames are free";
      either "flooder_can_alloc" "reserved pool intact, allocation works" "ALLOCATION BLOCKED";
      Printf.sprintf "offered %d pages; %d frames free after (reserve %d)" (n "flooder_offered")
        (n "flooder_free_after") (n "flooder_reserved");
    ];
  let c =
    Table.create ~title:"E9c: remote pager workload under seeded network faults (chaos fabric)"
      ~columns:[ "scenario"; "fault plan"; "outcome"; "metric" ]
  in
  let outcome failures ok = if g failures = 0.0 then ok else Printf.sprintf "FAILED=%d" (n failures) in
  List.iter
    (fun drop ->
      let at f = n (loss_key drop f) in
      Table.row c
        [
          Printf.sprintf "loss sweep (%d pages, write+verify)" (n "chaos_pages");
          Printf.sprintf "drop %.0f%%" (drop *. 100.0);
          (if at "blocked" = 0 && at "failures" = 0 then "all pages exact, zero blocked threads"
           else Printf.sprintf "BLOCKED=%d failures=%d" (at "blocked") (at "failures"));
          Printf.sprintf "%.1f ms, %d retransmits, %d wire drops"
            (ms (loss_key drop "completion_us")) (at "retransmits") (at "wire_drops");
        ])
    loss_sweep;
  Table.row c
    [
      "duplicate storm";
      "dup 30% + drop 5%";
      outcome "dup_failures" "at-most-once held (dedup window)";
      Printf.sprintf "%d duplicates injected, %d shed at receiver" (n "dup_injected")
        (n "dup_dropped");
    ];
  Table.row c
    [
      Printf.sprintf "partition-and-heal (%.0f ms cut)" (ms "partition_cut_us");
      "partition 0|1, heal";
      outcome "partition_failures" "retransmits carried all traffic across the heal";
      Printf.sprintf "converged %.1f ms after heal; %d messages hit the cut"
        (ms "partition_convergence_us") (n "partition_drops");
    ];
  Table.row c
    [
      "manager host crash mid-data_write";
      "crash_host 1";
      (if n "crash_blocked" = 0 && n "crash_pager_deaths" > 0 then
         "proxy-port death reached the client kernel; no hang"
       else Printf.sprintf "BLOCKED=%d pager_deaths=%d" (n "crash_blocked") (n "crash_pager_deaths"));
      Printf.sprintf "%d aborted accesses, %d pager deaths, %d msgs to dead host"
        (n "crash_aborted_accesses") (n "crash_pager_deaths") (n "crash_drops");
    ];
  Table.row c
    [
      "netmem ownership migration";
      "drop 10%";
      (if n "migration_failures" = 0 && n "migration_coherent" = 1 then
         "write grants migrated; final value coherent"
       else Printf.sprintf "FAILED=%d coherent=%d" (n "migration_failures") (n "migration_coherent"));
      Printf.sprintf "%d invalidations" (n "migration_invalidations");
    ];
  (* The uniform per-pager stats block of every manager the run booted,
     the failing ones included: the counters the conformance suite
     asserts on. *)
  [ t; pager_table ~title:"E9: per-pager runtime stats" pairs; c ]

let experiment =
  {
    id = "E9";
    title = "Failure handling";
    paper_claim =
      "External data manager failures are analogous to communication failures; the same options \
       apply (timeout, zero-fill, wait), and the default pager plus double paging protect the \
       kernel from starvation by errant managers (Section 6).";
    body;
    tables;
  }
