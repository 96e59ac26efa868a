(* Tests for the processor scheduler: per-CPU run queues, home CPUs,
   work stealing, quantum preemption, handoff donation — and the
   kernel-level guarantee that the IPC RPC fast path hands the sender's
   processor to the receiver without a context-switch charge. *)

open Mach
module Sched = Mach_sim.Sched
module Rng = Mach_util.Rng

let check = Alcotest.check

(* ---- deterministic replay ----------------------------------------------- *)

(* A fixed pseudo-random workload run twice must produce identical
   completion traces and identical counters: the scheduler introduces
   no hidden nondeterminism (hash order, physical time, ...). *)
let workload_trace ?(context_switch_us = 20.0) ~seed ~cpus ~threads ~bursts () =
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus ~quantum_us:500.0 ~context_switch_us () in
  let rng = Rng.create seed in
  let plans =
    List.init threads (fun _ -> List.init bursts (fun _ -> float_of_int (Rng.int_in rng 1 400)))
  in
  let trace = ref [] in
  List.iteri
    (fun i plan ->
      Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
          List.iter
            (fun us ->
              Sched.compute s us;
              trace := (i, Engine.now eng) :: !trace)
            plan))
    plans;
  Engine.run eng;
  (List.rev !trace, Counters.to_list (Sched.stats s), Sched.busy_us s)

let test_determinism () =
  let a = workload_trace ~seed:42 ~cpus:3 ~threads:5 ~bursts:12 () in
  let b = workload_trace ~seed:42 ~cpus:3 ~threads:5 ~bursts:12 () in
  let trace_a, stats_a, busy_a = a and trace_b, stats_b, busy_b = b in
  check Alcotest.(list (pair int (float 1e-9))) "same completion trace" trace_a trace_b;
  check Alcotest.(list (pair string int)) "same counters" stats_a stats_b;
  check (Alcotest.float 1e-9) "same busy time" busy_a busy_b

(* With free context switches no tenure is paid, so none holds: the
   completion trace is the one the scheduler produced before tenures
   held their processors (recorded from that scheduler). *)
let test_free_switch_trace_unchanged () =
  let trace, stats, _ = workload_trace ~context_switch_us:0.0 ~seed:42 ~cpus:2 ~threads:4
      ~bursts:4 () in
  check Alcotest.(list (pair int (float 1e-9))) "completion trace"
    [ (0, 86.0); (1, 170.0); (3, 248.0); (1, 295.0); (2, 326.0); (3, 456.0); (0, 502.0);
      (1, 645.0); (2, 774.0); (0, 927.0); (2, 940.0); (3, 969.0); (1, 971.0); (3, 1114.0);
      (2, 1188.0); (0, 1189.0) ]
    trace;
  check Alcotest.int "switches" 14 (List.assoc "switches" stats);
  check Alcotest.int "no holds" 0 (List.assoc "holds" stats)

(* ---- serialization and parallelism -------------------------------------- *)

let run_bursts ~cpus ~quantum_us ~context_switch_us jobs =
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus ~quantum_us ~context_switch_us () in
  let finished = ref 0 in
  List.iteri
    (fun i us ->
      Engine.spawn eng ~name:(Printf.sprintf "j%d" i) (fun () ->
          Sched.compute s us;
          incr finished))
    jobs;
  Engine.run eng;
  (Engine.now eng, Sched.stats s, !finished)

let test_serializes_on_one_cpu () =
  let elapsed, _, finished = run_bursts ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:0.0
      [ 100.0; 100.0; 100.0 ] in
  check Alcotest.int "all finished" 3 finished;
  Alcotest.(check bool) "serialized" true (elapsed >= 300.0)

let test_parallel_on_enough_cpus () =
  let elapsed, st, finished = run_bursts ~cpus:4 ~quantum_us:10_000.0 ~context_switch_us:50.0
      [ 100.0; 100.0; 100.0; 100.0 ] in
  check Alcotest.int "all finished" 4 finished;
  Alcotest.(check bool) "ran in parallel" true (elapsed < 150.0);
  check Alcotest.int "no switch charges on idle acquires" 0 (Counters.value st "switches")

let test_quantum_preemption () =
  (* Two 25ms bursts on one CPU with a 10ms quantum interleave: the
     second thread must start well before the first finishes. *)
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:0.0 () in
  let first_done = ref 0.0 and second_start = ref infinity in
  Engine.spawn eng ~name:"a" (fun () ->
      Sched.compute s 25_000.0;
      first_done := Engine.now eng);
  Engine.spawn eng ~name:"b" (fun () ->
      second_start := Engine.now eng;
      Sched.compute s 25_000.0);
  Engine.run eng;
  Alcotest.(check bool) "preemptions happened" true (Counters.value (Sched.stats s) "preemptions" >= 2);
  Alcotest.(check bool) "b started before a finished (timeslicing)" true
    (!second_start < !first_done)

let test_affinity_preferred () =
  (* With every CPU idle, consecutive bursts of one thread stay on the
     same processor. *)
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:4 ~quantum_us:10_000.0 ~context_switch_us:10.0 () in
  Engine.spawn eng ~name:"hot" (fun () ->
      for _ = 1 to 5 do
        Sched.compute s 50.0;
        Engine.sleep 5.0
      done);
  Engine.run eng;
  let st = Sched.stats s in
  Alcotest.(check bool) "affinity hits" true (Counters.value st "affinity_hits" >= 4);
  check Alcotest.int "no migrations" 0 (Counters.value st "migrations")

let test_handoff_expiry () =
  (* A donation nobody claims frees the processor after one
     context-switch window instead of leaking it. *)
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:20.0 () in
  let late_done = ref false in
  Engine.spawn eng ~name:"donor" (fun () ->
      (match Sched.compute_donating s 10.0 ~donate_if:(fun () -> true) with
      | Some _ -> ()
      | None -> Alcotest.fail "a burst's end should always be able to donate");
      Engine.sleep 1000.0);
  Engine.spawn eng ~name:"other" (fun () ->
      Engine.sleep 15.0;
      (* The only CPU is reserved at this point; the burst must still
         complete once the reservation expires. *)
      Sched.compute s 10.0;
      late_done := true);
  Engine.run eng;
  Alcotest.(check bool) "burst ran after expiry" true !late_done;
  check Alcotest.int "expiry counted" 1 (Counters.value (Sched.stats s) "handoff_expired")

let test_handoff_cancel () =
  (* A donation handed back re-dispatches the processor at once: the
     queued thread does not wait out the reservation window. *)
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:20.0 () in
  let other_done = ref 0.0 in
  Engine.spawn eng ~name:"donor" (fun () ->
      match Sched.compute_donating s 10.0 ~donate_if:(fun () -> true) with
      | Some r -> Sched.cancel_handoff r
      | None -> Alcotest.fail "a burst's end should always be able to donate");
  Engine.spawn eng ~name:"other" (fun () ->
      Engine.sleep 1.0;
      (* Queues behind the donor's burst on the only CPU. *)
      Sched.compute s 10.0;
      other_done := Engine.now eng);
  Engine.run eng;
  (* Donor ends at 10; other is dispatched at once and pays one switch. *)
  check (Alcotest.float 1e-9) "other ran right after the hand-back" 40.0 !other_done;
  check Alcotest.int "hand-back counted as unclaimed" 1 (Counters.value (Sched.stats s) "handoff_expired");
  check Alcotest.int "nothing left reserved" 1 (Sched.idle_cpus s)

(* ---- tenure: a paid switch keeps its processor ---------------------------- *)

(* One CPU, an 80 us switch, and [a] computing from 0 to 100 us, so a
   thread that arrives meanwhile queues behind it. *)
let one_cpu_80 () =
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:80.0 () in
  Engine.spawn eng ~name:"a" (fun () -> Sched.compute s 100.0);
  (eng, s)

let test_paid_tenure_holds () =
  let eng, s = one_cpu_80 () in
  let b_eighth = ref 0.0 and c_done = ref 0.0 in
  Engine.spawn eng ~name:"b" (fun () ->
      Engine.sleep 1.0;
      for i = 1 to 12 do
        Sched.compute s 10.0;
        if i = 8 then b_eighth := Engine.now eng
      done);
  Engine.spawn eng ~name:"c" (fun () ->
      Engine.sleep 2.0;
      Sched.compute s 10.0;
      c_done := Engine.now eng);
  Engine.run eng;
  let st = Sched.stats s in
  (* b enters at 100 and pays 80 us; its first eight 10 us bursts use
     that up back to back (180 .. 260). Only then does c get the CPU
     (80 + 10 us), and b's last four bursts pay one more switch. *)
  check (Alcotest.float 1e-9) "b kept its CPU for 80 us of bursts" 260.0 !b_eighth;
  check (Alcotest.float 1e-9) "c ran once b's paid time was used" 350.0 !c_done;
  check Alcotest.int "three switches, not one per burst" 3 (Counters.value st "switches");
  check Alcotest.int "held bursts" 10 (Counters.value st "holds");
  check Alcotest.int "nothing left held" 1 (Sched.idle_cpus s)

let test_blocked_holder_releases () =
  let eng, s = one_cpu_80 () in
  let c_done = ref 0.0 in
  Engine.spawn eng ~name:"b" (fun () ->
      Engine.sleep 1.0;
      Sched.compute s 10.0;
      (* Holding at 190 with paid time left; blocking gives it up. *)
      Engine.sleep 500.0;
      Sched.compute s 10.0);
  Engine.spawn eng ~name:"c" (fun () ->
      Engine.sleep 2.0;
      Sched.compute s 10.0;
      c_done := Engine.now eng);
  Engine.run eng;
  let st = Sched.stats s in
  check (Alcotest.float 1e-9) "c dispatched at the instant b blocked" (190.0 +. 80.0 +. 10.0)
    !c_done;
  check Alcotest.int "no held re-entry" 0 (Counters.value st "holds");
  check Alcotest.int "no idle CPU beside a waiter" 0 (Counters.value st "idle_with_waiter")

(* The holder blocks at 190, and x runs at that same instant before the
   hold's release event: x's acquire must see the blocked holder's CPU
   as free, not queue behind it and pay a switch. *)
let test_acquire_releases_blocked_holder () =
  let eng, s = one_cpu_80 () in
  let x_done = ref 0.0 in
  Engine.spawn eng ~name:"h" (fun () ->
      Engine.sleep 1.0;
      Sched.compute s 10.0;
      Engine.sleep 500.0);
  Engine.spawn eng ~name:"x" (fun () ->
      (* Wake at 190, ordered after h's burst end. *)
      Engine.sleep 185.0;
      Engine.sleep 5.0;
      Sched.compute s 10.0;
      x_done := Engine.now eng);
  Engine.run eng;
  check (Alcotest.float 1e-9) "x took the CPU directly" 200.0 !x_done;
  check Alcotest.int "only h's entry was a switch" 1 (Counters.value (Sched.stats s) "switches")

let test_free_tenures_do_not_hold () =
  (* Direct: a's first burst took the idle CPU for free, so its end
     dispatches b although a computes again at once. *)
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:80.0 () in
  let b_done = ref 0.0 in
  Engine.spawn eng ~name:"a" (fun () ->
      Sched.compute s 10.0;
      Sched.compute s 10.0);
  Engine.spawn eng ~name:"b" (fun () ->
      Engine.sleep 1.0;
      Sched.compute s 10.0;
      b_done := Engine.now eng);
  Engine.run eng;
  check (Alcotest.float 1e-9) "direct tenure gave way after one burst" 100.0 !b_done;
  check Alcotest.int "direct: no holds" 0 (Counters.value (Sched.stats s) "holds");
  (* Handoff: recv enters on the donated CPU for free; its first burst's
     end dispatches the queued c. *)
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:20.0 () in
  let c_done = ref 0.0 and recv = ref None in
  Engine.spawn eng ~name:"donor" (fun () ->
      match Sched.compute_donating s 10.0 ~donate_if:(fun () -> true) with
      | Some r -> Sched.claim_handoff r (Option.get !recv)
      | None -> Alcotest.fail "a burst's end should always be able to donate");
  Engine.spawn eng ~name:"recv" (fun () ->
      recv := Some (Engine.self ());
      Engine.sleep 15.0;
      Sched.compute s 10.0;
      Sched.compute s 10.0);
  Engine.spawn eng ~name:"c" (fun () ->
      (* The CPU is reserved now, so c queues. *)
      Engine.sleep 12.0;
      Sched.compute s 10.0;
      c_done := Engine.now eng);
  Engine.run eng;
  let st = Sched.stats s in
  check Alcotest.int "donation claimed" 1 (Counters.value st "handoff_claims");
  check (Alcotest.float 1e-9) "handoff tenure gave way after one burst" (25.0 +. 20.0 +. 10.0)
    !c_done;
  check Alcotest.int "handoff: no holds" 0 (Counters.value st "holds")

(* A donation is claimed for a fiber, not for its name: of two fibers
   named [w], the one that computes first queues behind the reservation,
   and the one the donation names enters the donated CPU. *)
let test_handoff_claim_is_per_fiber () =
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:20.0 () in
  let first_done = ref 0.0 and second_done = ref 0.0 and second = ref None in
  Engine.spawn eng ~name:"donor" (fun () ->
      match Sched.compute_donating s 10.0 ~donate_if:(fun () -> true) with
      | Some r -> Sched.claim_handoff r (Option.get !second)
      | None -> Alcotest.fail "a burst's end should always be able to donate");
  Engine.spawn eng ~name:"w" (fun () ->
      Engine.sleep 12.0;
      Sched.compute s 10.0;
      first_done := Engine.now eng);
  Engine.spawn eng ~name:"w" (fun () ->
      second := Some (Engine.self ());
      Engine.sleep 15.0;
      Sched.compute s 10.0;
      second_done := Engine.now eng);
  Engine.run eng;
  let st = Sched.stats s in
  check Alcotest.int "donation claimed" 1 (Counters.value st "handoff_claims");
  check (Alcotest.float 1e-9) "the named fiber entered at once" 25.0 !second_done;
  check (Alcotest.float 1e-9) "its namesake queued and paid a switch" (25.0 +. 20.0 +. 10.0)
    !first_done;
  check Alcotest.int "one switch" 1 (Counters.value st "switches")

(* ---- no-starvation / work-stealing property ------------------------------ *)

(* Random fleets of threads with random burst plans on random CPU
   counts, where some bursts end by donating their processor to a random
   beneficiary and some are followed by a blocking sleep (possibly of
   zero length): every burst completes, the invariant oracle — a CPU
   went idle while another CPU's run queue held a waiter — never fires,
   every reservation is either claimed or expires, so none leaks, no
   processor is left held, and busy time is exactly the bursts plus one
   charge per switch, so a held processor never accrues idle time.
   This is the property work stealing and the release of blocked
   holders exist to enforce. *)
let no_starvation_prop =
  let open QCheck2 in
  let gen =
    Gen.(
      tup3 (int_range 1 4)
        (int_range 1 8)
        (list_size (int_range 1 40)
           (quad (int_range 0 7)
              (oneof [ int_range 1 30; int_range 1 300 ])
              (opt (int_range 0 7))
              (opt (int_range 0 50)))))
  in
  Test.make ~name:"no CPU idles while a runnable thread waits" ~count:50 gen
    (fun (cpus, threads, bursts) ->
      let eng = Engine.create () in
      (* Many bursts are shorter than a switch, so paid tenures hold. *)
      let context_switch_us = 20.0 in
      let s = Sched.create eng ~cpus ~quantum_us:100.0 ~context_switch_us () in
      let name i = Printf.sprintf "t%d" i in
      let fibers = Array.make threads None in
      let plans = Array.make threads [] in
      List.iter
        (fun (th, us, donate_to, gap) ->
          let th = th mod threads in
          plans.(th) <- (float_of_int us, donate_to, gap) :: plans.(th))
        bursts;
      let total = List.length bursts in
      let completed = ref 0 and donations = ref 0 in
      Array.iteri
        (fun i plan ->
          Engine.spawn eng ~name:(name i) (fun () ->
              fibers.(i) <- Some (Engine.self ());
              List.iter
                (fun (us, donate_to, gap) ->
                  (match donate_to with
                  | None -> Sched.compute s us
                  | Some b -> (
                    match Sched.compute_donating s us ~donate_if:(fun () -> true) with
                    | Some r ->
                      incr donations;
                      Option.iter (Sched.claim_handoff r) fibers.(b mod threads)
                    | None -> ()));
                  incr completed;
                  Option.iter (fun g -> Engine.sleep (float_of_int g)) gap)
                plan))
        plans;
      Engine.run eng;
      let st = Sched.stats s in
      let burst_us = List.fold_left (fun acc (_, us, _, _) -> acc + us) 0 bursts in
      let expected_busy =
        float_of_int burst_us +. (float_of_int (Counters.value st "switches") *. context_switch_us)
      in
      !completed = total
      && Float.abs (Sched.busy_us s -. expected_busy) < 1e-6
      && Counters.value st "idle_with_waiter" = 0
      && Counters.value st "handoff_claims" + Counters.value st "handoff_expired" = !donations
      && Sched.queued s = 0
      && Sched.idle_cpus s = cpus)

(* ---- kernel-level handoff: RPC fast path charges no switch --------------- *)

let multimax2 = { Machine.multimax with Machine.cpus = 2 }

(* One RPC to an already-blocked receiver: both deliveries (request and
   reply) must ride the handoff path — no run-queue dispatch charge on
   either side. *)
let test_rpc_handoff_no_switch () =
  let config = { Kernel.default_config with Kernel.params = multimax2 } in
  let sys = Kernel.create_system ~config () in
  let kctx = Kernel.kctx sys.Kernel.kernel in
  let sched = kctx.Kctx.sched in
  let istats = kctx.Kctx.node.Transport.node_stats in
  let ok = ref false in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let task = Task.create sys.Kernel.kernel ~name:"t" () in
      let svc = Syscalls.port_allocate task ~backlog:4 () in
      let svc_port = Port_space.lookup_exn (Task.space task) svc in
      ignore
        (Thread.spawn task ~name:"server" (fun () ->
             match Syscalls.msg_receive task ~from:(`Port svc) () with
             | Ok msg ->
               let rp = Option.get msg.Message.header.Message.reply in
               ignore (Syscalls.msg_send task (Message.make ~dest:rp [ Message.Data (Bytes.create 4) ]))
             | Error _ -> Alcotest.fail "server receive failed"));
      ignore
        (Thread.spawn task ~name:"client" (fun () ->
             (* Let the server block first. *)
             Engine.sleep 100.0;
             let reply = Syscalls.port_allocate task ~backlog:1 () in
             let reply_port = Port_space.lookup_exn (Task.space task) reply in
             let sw0 = Counters.value (Sched.stats sched) "switches" in
             let ho0 = Counters.value istats "handoffs" in
             (match
                Syscalls.msg_rpc task
                  (Message.make ~dest:svc_port ~reply:reply_port [ Message.Data (Bytes.create 4) ])
                  ()
              with
             | Ok _ -> ()
             | Error _ -> Alcotest.fail "rpc failed");
             check Alcotest.int "no context-switch charges on the RPC"
               sw0 (Counters.value (Sched.stats sched) "switches");
             check Alcotest.int "request and reply both handed off"
               (ho0 + 2) (Counters.value istats "handoffs");
             Alcotest.(check bool) "donations claimed" true
               (Counters.value (Sched.stats sched) "handoff_claims" >= 1);
             ok := true)));
  Engine.run sys.Kernel.engine;
  Alcotest.(check bool) "scenario completed" true !ok

(* [pairs] client/server pairs of ping-pong RPCs on [cpus] CPUs (2 by
   default). Returns the longest client's elapsed time and the run's
   scheduler and IPC counters. *)
let ping_pong ?(cpus = 2) ~handoff ~pairs ~rpcs () =
  let params = { multimax2 with Machine.handoff; cpus } in
  let config = { Kernel.default_config with Kernel.params } in
  let sys = Kernel.create_system ~config () in
  let kctx = Kernel.kctx sys.Kernel.kernel in
  let elapsed = ref 0.0 in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let task = Task.create sys.Kernel.kernel ~name:"t" () in
      for i = 1 to pairs do
        let svc = Syscalls.port_allocate task ~backlog:4 () in
        let svc_port = Port_space.lookup_exn (Task.space task) svc in
        ignore
          (Thread.spawn task ~name:(Printf.sprintf "server%d" i) (fun () ->
               for _ = 1 to rpcs do
                 match Syscalls.msg_receive task ~from:(`Port svc) () with
                 | Ok msg ->
                   let rp = Option.get msg.Message.header.Message.reply in
                   ignore
                     (Syscalls.msg_send task
                        (Message.make ~dest:rp [ Message.Data (Bytes.create 4) ]))
                 | Error _ -> Alcotest.fail "server receive failed"
               done));
        ignore
          (Thread.spawn task ~name:(Printf.sprintf "client%d" i) (fun () ->
               let reply = Syscalls.port_allocate task ~backlog:1 () in
               let reply_port = Port_space.lookup_exn (Task.space task) reply in
               let t0 = Engine.now sys.Kernel.engine in
               for _ = 1 to rpcs do
                 match
                   Syscalls.msg_rpc task
                     (Message.make ~dest:svc_port ~reply:reply_port
                        [ Message.Data (Bytes.create 4) ])
                     ()
                 with
                 | Ok _ -> ()
                 | Error _ -> Alcotest.fail "rpc failed"
               done;
               elapsed := Float.max !elapsed (Engine.now sys.Kernel.engine -. t0)))
      done);
  Engine.run sys.Kernel.engine;
  (!elapsed, Sched.stats kctx.Kctx.sched, kctx.Kctx.node.Transport.node_stats)

(* The same ping-pong with donation disabled is strictly slower: the
   saving is the two context-switch charges the handoff skips. *)
let test_handoff_cheaper_than_queue () =
  let rpcs = 50 in
  let on, _, _ = ping_pong ~handoff:true ~pairs:1 ~rpcs () in
  let off, _, _ = ping_pong ~handoff:false ~pairs:1 ~rpcs () in
  Alcotest.(check bool)
    (Printf.sprintf "handoff path cheaper (%.1f < %.1f us)" on off)
    true (on < off);
  (* Each RPC skips two receive-side switch charges. *)
  let expected_saving = float_of_int (2 * rpcs) *. multimax2.Machine.context_switch_us in
  check (Alcotest.float 1.0) "saving = two switch charges per RPC" expected_saving (off -. on)

(* On one CPU the server's reply donates the only processor, so its
   next receive would queue behind the client for a trap and then go
   to sleep. It bills that trap when it wakes instead: no round trip
   touches a run queue, and each costs exactly its three traps (the
   client's [msg_rpc], the server's receive and reply) and two sends.
   The server's first receive trapped before the client started its
   clock, so the window holds one trap less. *)
let test_one_cpu_ping_pong () =
  let rpcs = 50 in
  let elapsed, st, _ = ping_pong ~cpus:1 ~handoff:true ~pairs:1 ~rpcs () in
  Alcotest.(check bool)
    (Printf.sprintf "no switch per round trip (%d for %d RPCs)" (Counters.value st "switches") rpcs)
    true
    (Counters.value st "switches" <= 2);
  let p = multimax2 in
  let page_size = Kernel.default_config.Kernel.page_size in
  (* [Transport.send_cost_us] of the 4-byte request or reply. *)
  let send_us = p.Machine.msg_overhead_us +. (4.0 *. p.Machine.page_copy_us /. float_of_int page_size) in
  let trap_us = Cpu.syscall_overhead_us in
  let expected = (float_of_int rpcs *. ((3.0 *. trap_us) +. (2.0 *. send_us))) -. trap_us in
  check (Alcotest.float 1e-6) "three traps and two sends per round trip" expected elapsed

(* Four pairs on two CPUs keep every processor busy, so a donation can
   only happen at the end of the send burst, before the run queue takes
   the processor. Nearly every handoff must still get its CPU. *)
let test_saturated_handoff () =
  let pairs = 4 and rpcs = 50 in
  let _, on, on_ipc = ping_pong ~handoff:true ~pairs ~rpcs () in
  let _, off, _ = ping_pong ~handoff:false ~pairs ~rpcs () in
  let handoffs = Counters.value on_ipc "handoffs" in
  let claims = Counters.value on "handoff_claims" in
  Alcotest.(check bool)
    (Printf.sprintf "claims %d >= 90%% of handoffs %d" claims handoffs)
    true
    (handoffs > 0 && 10 * claims >= 9 * handoffs);
  let per_rpc st = float_of_int (Counters.value st "switches") /. float_of_int (pairs * rpcs) in
  Alcotest.(check bool)
    (Printf.sprintf "fewer switches per RPC (%.2f < %.2f)" (per_rpc on) (per_rpc off))
    true
    (per_rpc on < per_rpc off)

let () =
  Alcotest.run "sched"
    [
      ( "scheduler",
        [
          Alcotest.test_case "deterministic replay" `Quick test_determinism;
          Alcotest.test_case "one CPU serializes" `Quick test_serializes_on_one_cpu;
          Alcotest.test_case "enough CPUs parallelize" `Quick test_parallel_on_enough_cpus;
          Alcotest.test_case "quantum preemption interleaves" `Quick test_quantum_preemption;
          Alcotest.test_case "soft affinity" `Quick test_affinity_preferred;
          Alcotest.test_case "unclaimed donation expires" `Quick test_handoff_expiry;
          Alcotest.test_case "handed-back donation re-dispatches" `Quick test_handoff_cancel;
          Alcotest.test_case "free switches leave traces unchanged" `Quick
            test_free_switch_trace_unchanged;
          Alcotest.test_case "paid tenure keeps its CPU" `Quick test_paid_tenure_holds;
          Alcotest.test_case "blocked holder releases at once" `Quick test_blocked_holder_releases;
          Alcotest.test_case "acquire releases a blocked holder" `Quick
            test_acquire_releases_blocked_holder;
          Alcotest.test_case "free tenures do not hold" `Quick test_free_tenures_do_not_hold;
          Alcotest.test_case "a claim names a fiber, not a name" `Quick
            test_handoff_claim_is_per_fiber;
          QCheck_alcotest.to_alcotest no_starvation_prop;
        ] );
      ( "ipc-handoff",
        [
          Alcotest.test_case "RPC fast path charges no switch" `Quick test_rpc_handoff_no_switch;
          Alcotest.test_case "handoff cheaper than run queue" `Quick test_handoff_cheaper_than_queue;
          Alcotest.test_case "one-CPU ping-pong pays no switch" `Quick test_one_cpu_ping_pong;
          Alcotest.test_case "saturated handoff keeps its CPU" `Quick test_saturated_handoff;
        ] );
    ]
