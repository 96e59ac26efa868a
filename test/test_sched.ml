(* Tests for the processor scheduler: per-CPU run queues, affinity,
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
let workload_trace ~seed ~cpus ~threads ~bursts =
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus ~quantum_us:500.0 ~context_switch_us:20.0 () in
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
  (List.rev !trace, Sched.stats_to_list (Sched.stats s), Sched.busy_us s)

let test_determinism () =
  let a = workload_trace ~seed:42 ~cpus:3 ~threads:5 ~bursts:12 in
  let b = workload_trace ~seed:42 ~cpus:3 ~threads:5 ~bursts:12 in
  let trace_a, stats_a, busy_a = a and trace_b, stats_b, busy_b = b in
  check Alcotest.(list (pair int (float 1e-9))) "same completion trace" trace_a trace_b;
  check Alcotest.(list (pair string int)) "same counters" stats_a stats_b;
  check (Alcotest.float 1e-9) "same busy time" busy_a busy_b

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
  check Alcotest.int "no switch charges on idle acquires" 0 st.Sched.s_switches

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
  Alcotest.(check bool) "preemptions happened" true ((Sched.stats s).Sched.s_preemptions >= 2);
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
  Alcotest.(check bool) "affinity hits" true (st.Sched.s_affinity_hits >= 4);
  check Alcotest.int "no migrations" 0 st.Sched.s_migrations

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
  check Alcotest.int "expiry counted" 1 (Sched.stats s).Sched.s_handoff_expired

let test_handoff_cancel () =
  (* A donation handed back re-dispatches the processor at once: the
     queued thread does not wait out the reservation window. *)
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:20.0 () in
  let other_done = ref 0.0 in
  Engine.spawn eng ~name:"donor" (fun () ->
      match Sched.compute_donating s 10.0 ~donate_if:(fun () -> true) with
      | Some ticket -> Sched.cancel_handoff s ~ticket
      | None -> Alcotest.fail "a burst's end should always be able to donate");
  Engine.spawn eng ~name:"other" (fun () ->
      Engine.sleep 1.0;
      (* Queues behind the donor's burst on the only CPU. *)
      Sched.compute s 10.0;
      other_done := Engine.now eng);
  Engine.run eng;
  (* Donor ends at 10; other is dispatched at once and pays one switch. *)
  check (Alcotest.float 1e-9) "other ran right after the hand-back" 40.0 !other_done;
  check Alcotest.int "hand-back counted as unclaimed" 1 (Sched.stats s).Sched.s_handoff_expired;
  check Alcotest.int "nothing left reserved" 1 (Sched.idle_cpus s)

(* ---- no-starvation / work-stealing property ------------------------------ *)

(* Random fleets of threads with random burst plans on random CPU
   counts, where some bursts end by donating their processor to a random
   beneficiary: every burst completes, the invariant oracle — a CPU
   went idle while another CPU's run queue held a waiter — never fires,
   and every reservation is either claimed or expires, so none leaks.
   This is the property work stealing exists to enforce. *)
let no_starvation_prop =
  let open QCheck2 in
  let gen =
    Gen.(
      tup3 (int_range 1 4)
        (int_range 1 8)
        (list_size (int_range 1 40)
           (triple (int_range 0 7) (int_range 1 300) (opt (int_range 0 7)))))
  in
  Test.make ~name:"no CPU idles while a runnable thread waits" ~count:50 gen
    (fun (cpus, threads, bursts) ->
      let eng = Engine.create () in
      let s = Sched.create eng ~cpus ~quantum_us:100.0 ~context_switch_us:7.0 () in
      let name i = Printf.sprintf "t%d" i in
      let plans = Array.make threads [] in
      List.iter
        (fun (th, us, donate_to) ->
          let th = th mod threads in
          plans.(th) <- (float_of_int us, donate_to) :: plans.(th))
        bursts;
      let total = List.length bursts in
      let completed = ref 0 and donations = ref 0 in
      Array.iteri
        (fun i plan ->
          Engine.spawn eng ~name:(name i) (fun () ->
              List.iter
                (fun (us, donate_to) ->
                  (match donate_to with
                  | None -> Sched.compute s us
                  | Some b -> (
                    match Sched.compute_donating s us ~donate_if:(fun () -> true) with
                    | Some ticket ->
                      incr donations;
                      Sched.claim_handoff s ~ticket ~name:(name (b mod threads))
                    | None -> ()));
                  incr completed)
                plan))
        plans;
      Engine.run eng;
      let st = Sched.stats s in
      !completed = total
      && st.Sched.s_idle_with_waiter = 0
      && st.Sched.s_handoff_claims + st.Sched.s_handoff_expired = !donations
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
             let sw0 = (Sched.stats sched).Sched.s_switches in
             let ho0 = istats.Transport.s_handoffs in
             (match
                Syscalls.msg_rpc task
                  (Message.make ~dest:svc_port ~reply:reply_port [ Message.Data (Bytes.create 4) ])
                  ()
              with
             | Ok _ -> ()
             | Error _ -> Alcotest.fail "rpc failed");
             check Alcotest.int "no context-switch charges on the RPC"
               sw0 (Sched.stats sched).Sched.s_switches;
             check Alcotest.int "request and reply both handed off"
               (ho0 + 2) istats.Transport.s_handoffs;
             Alcotest.(check bool) "donations claimed" true
               ((Sched.stats sched).Sched.s_handoff_claims >= 1);
             ok := true)));
  Engine.run sys.Kernel.engine;
  Alcotest.(check bool) "scenario completed" true !ok

(* [pairs] client/server pairs of ping-pong RPCs on 2 CPUs. Returns the
   longest client's elapsed time and the run's scheduler and IPC
   counters. *)
let ping_pong ~handoff ~pairs ~rpcs =
  let config = { Kernel.default_config with Kernel.params = { multimax2 with Machine.handoff } } in
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
  let on, _, _ = ping_pong ~handoff:true ~pairs:1 ~rpcs in
  let off, _, _ = ping_pong ~handoff:false ~pairs:1 ~rpcs in
  Alcotest.(check bool)
    (Printf.sprintf "handoff path cheaper (%.1f < %.1f us)" on off)
    true (on < off);
  (* Each RPC skips two receive-side switch charges. *)
  let expected_saving = float_of_int (2 * rpcs) *. multimax2.Machine.context_switch_us in
  check (Alcotest.float 1.0) "saving = two switch charges per RPC" expected_saving (off -. on)

(* Four pairs on two CPUs keep every processor busy, so a donation can
   only happen at the end of the send burst, before the run queue takes
   the processor. Nearly every handoff must still get its CPU. *)
let test_saturated_handoff () =
  let pairs = 4 and rpcs = 50 in
  let _, on, on_ipc = ping_pong ~handoff:true ~pairs ~rpcs in
  let _, off, _ = ping_pong ~handoff:false ~pairs ~rpcs in
  let handoffs = on_ipc.Transport.s_handoffs in
  let claims = on.Sched.s_handoff_claims in
  Alcotest.(check bool)
    (Printf.sprintf "claims %d >= 90%% of handoffs %d" claims handoffs)
    true
    (handoffs > 0 && 10 * claims >= 9 * handoffs);
  let per_rpc st = float_of_int st.Sched.s_switches /. float_of_int (pairs * rpcs) in
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
          QCheck_alcotest.to_alcotest no_starvation_prop;
        ] );
      ( "ipc-handoff",
        [
          Alcotest.test_case "RPC fast path charges no switch" `Quick test_rpc_handoff_no_switch;
          Alcotest.test_case "handoff cheaper than run queue" `Quick test_handoff_cheaper_than_queue;
          Alcotest.test_case "saturated handoff keeps its CPU" `Quick test_saturated_handoff;
        ] );
    ]
