(* Chaos fabric and reliable remote delivery: fault injection, the
   sequenced/acked channel layer every remote message rides (with or
   without chaos), watchdog channel-down, crash propagation, and the
   Transport.send timeout edge cases. *)

module Engine = Mach_sim.Engine
module Counters = Mach_util.Metrics.Counters
module Chaos = Mach_sim.Chaos
module Mailbox = Mach_sim.Mailbox
module Net = Mach_hw.Net
module Machine = Mach_hw.Machine
module Context = Mach_ipc.Context
module Port = Mach_ipc.Port
module Message = Mach_ipc.Message
module Port_space = Mach_ipc.Port_space
module Transport = Mach_ipc.Transport

let check = Alcotest.check

let make_ctx () =
  let eng = Engine.create () in
  let net = Net.create eng ~latency_us:100.0 ~us_per_byte:1.0 () in
  let ctx = Context.create eng net in
  (eng, net, ctx)

(* A faulty two-host fabric: chaos attached under the reliable
   channels, heal/crash/restart hooks wired the way
   Kernel.create_cluster wires them. *)
let make_chaos_ctx ?(seed = 42) plan =
  let eng, net, ctx = make_ctx () in
  let chaos = Chaos.create ~seed () in
  Chaos.set_default_plan chaos plan;
  Net.set_chaos net (Some chaos);
  Chaos.on_heal chaos (fun a b -> Context.reset_link ctx a b);
  Chaos.on_crash chaos (fun host -> ignore (Context.crash_host ctx ~host));
  Chaos.on_restart chaos (fun host -> Context.restart_host ctx ~host);
  (eng, net, ctx, chaos)

(* One node per host of a context, as a booted kernel has: a scheduler
   with a processor for every test thread, and a trace left off. *)
let nodes = ref []

let node ?(host = 0) ctx =
  match List.find_opt (fun (c, h, _) -> c == ctx && h = host) !nodes with
  | Some (_, _, nd) -> nd
  | None ->
    let eng = Context.engine ctx in
    let nd =
      {
        Transport.node_host = host;
        node_params = Machine.uniprocessor;
        node_page_size = 4096;
        node_stats = Counters.create Transport.ipc_counters;
        node_sched =
          Mach_sim.Sched.create eng ~cpus:64
            ~context_switch_us:Machine.uniprocessor.Machine.context_switch_us ();
        node_trace = Mach_sim.Trace.create eng;
      }
    in
    nodes := (ctx, host, nd) :: !nodes;
    nd

let data s = Message.Data (Bytes.of_string s)

let in_sim eng f =
  let result = ref None in
  Engine.spawn eng ~name:"test-body" (fun () -> result := Some (f ()));
  Engine.run eng;
  match !result with Some r -> r | None -> Alcotest.fail "test body blocked forever"

let drain_payloads port =
  let rec loop acc =
    match Mailbox.try_recv (Port.queue port) with
    | Some msg -> loop (Bytes.to_string (Message.data_exn msg) :: acc)
    | None -> List.rev acc
  in
  loop []

(* Send [n] numbered messages host 0 -> host 1 and return the payloads
   that arrived, in arrival order. *)
let run_numbered_sends eng ctx ?(n = 24) () =
  let p = Port.create ctx ~home:1 ~backlog:64 ~drop:Message.discard () in
  let nd = node ctx in
  let errors = ref 0 in
  Engine.spawn eng ~name:"sender" (fun () ->
      for i = 1 to n do
        match Transport.send nd (Message.make ~dest:p [ data (string_of_int i) ]) with
        | Ok () -> ()
        | Error _ -> incr errors
      done);
  Engine.run eng;
  (drain_payloads p, !errors)

let expected_payloads n = List.init n (fun i -> string_of_int (i + 1))

(* Long enough for the watchdog to spend its whole retry budget on a
   silent peer: 10 rounds of backoff (1 + 2 + 4 + 8 + 16 x 7 = 127 base
   timeouts) trip it about 122 ms after the first send on this fabric. *)
let past_retry_budget_us = 500_000.0

(* ---- Transport.send timeout edge cases ----------------------------------- *)

let test_send_timeout_zero_nonblocking () =
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp ~backlog:1 () in
  let p = Port_space.lookup_exn sp n in
  in_sim eng (fun () ->
      (match Transport.send (node ctx) (Message.make ~dest:p [ data "1" ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "first send");
      let before = Engine.now eng in
      (match Transport.send (node ctx) ~timeout:0.0 (Message.make ~dest:p [ data "2" ]) with
      | Error Transport.Send_timed_out -> ()
      | Ok () | Error _ -> Alcotest.fail "expected immediate timeout");
      (* timeout 0 is a try: no sim time passes waiting on the queue
         (only the send's own CPU charge). *)
      check (Alcotest.float 1000.0) "no queue wait" before (Engine.now eng))

let test_send_timeout_expires_behind_full_queue () =
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp ~backlog:1 () in
  let p = Port_space.lookup_exn sp n in
  in_sim eng (fun () ->
      (match Transport.send (node ctx) (Message.make ~dest:p [ data "1" ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "first send");
      let before = Engine.now eng in
      (match Transport.send (node ctx) ~timeout:250.0 (Message.make ~dest:p [ data "2" ]) with
      | Error Transport.Send_timed_out -> ()
      | Ok () | Error _ -> Alcotest.fail "expected timeout");
      let waited = Engine.now eng -. before in
      Alcotest.(check bool) "waited the full timeout" true (waited >= 250.0);
      (* The timed-out message never landed. *)
      check Alcotest.(list string) "queue holds only the first" [ "1" ] (drain_payloads p))

(* ---- reliable channel vs injected faults --------------------------------- *)

let test_loss_recovered_by_retransmission () =
  let eng, net, ctx, chaos =
    make_chaos_ctx { Chaos.perfect with drop = 0.3 }
  in
  let got, errors = run_numbered_sends eng ctx () in
  check Alcotest.(list string) "all delivered in order" (expected_payloads 24) got;
  check Alcotest.int "no send errors" 0 errors;
  Alcotest.(check bool) "faults actually injected" true (Counters.value (Chaos.stats chaos) "dropped" > 0);
  Alcotest.(check bool) "retransmits happened" true (Counters.value (Net.stats net) "retransmits" > 0);
  check Alcotest.int "net counted every chaos drop"
    (Chaos.faults_injected chaos - Counters.value (Chaos.stats chaos) "reordered"
    - Counters.value (Chaos.stats chaos) "duplicated")
    (Counters.value (Net.stats net) "dropped")

let test_duplicate_storm_is_deduped () =
  let eng, _, ctx, chaos =
    make_chaos_ctx { Chaos.perfect with duplicate = 0.5; drop = 0.05 }
  in
  let got, errors = run_numbered_sends eng ctx () in
  check Alcotest.(list string) "exactly once, in order" (expected_payloads 24) got;
  check Alcotest.int "no send errors" 0 errors;
  Alcotest.(check bool) "duplicates injected" true
    (Counters.value (Chaos.stats chaos) "duplicated" > 0);
  let dup_dropped = Counters.value (Context.chan_stats ctx) "dup_dropped" in
  Alcotest.(check bool) "receiver shed duplicates" true (dup_dropped > 0)

let test_reorder_resequenced_fifo () =
  let eng, _, ctx, chaos =
    make_chaos_ctx { Chaos.perfect with reorder = 0.5; jitter_us = 5000.0 }
  in
  let got, errors = run_numbered_sends eng ctx () in
  check Alcotest.(list string) "FIFO preserved" (expected_payloads 24) got;
  check Alcotest.int "no send errors" 0 errors;
  Alcotest.(check bool) "reorders injected" true (Counters.value (Chaos.stats chaos) "reordered" > 0);
  let reseq = Counters.value (Context.chan_stats ctx) "resequenced" in
  Alcotest.(check bool) "receiver resequenced" true (reseq > 0)

let test_partition_exhausts_retry_budget () =
  let eng, _, ctx, chaos = make_chaos_ctx Chaos.perfect in
  let p = Port.create ctx ~home:1 ~drop:Message.discard () in
  let nd = node ctx in
  in_sim eng (fun () ->
      Chaos.partition chaos 0 1;
      (match Transport.send nd (Message.make ~dest:p [ data "lost" ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "send accepted before the watchdog trips");
      Engine.sleep past_retry_budget_us;
      Alcotest.(check bool) "channel declared down" true (Context.chan_down ctx ~src:0 ~dst:1);
      match Transport.send nd (Message.make ~dest:p [ data "after" ]) with
      | Error Transport.Send_timed_out -> ()
      | Ok () | Error _ -> Alcotest.fail "expected Send_timed_out on a down channel");
  check Alcotest.(list string) "nothing delivered" [] (drain_payloads p);
  let aborts = Counters.value (Context.chan_stats ctx) "aborts" in
  check Alcotest.int "one channel abort" 1 aborts

let test_heal_revives_channel () =
  let eng, _, ctx, chaos = make_chaos_ctx Chaos.perfect in
  let p = Port.create ctx ~home:1 ~backlog:64 ~drop:Message.discard () in
  let nd = node ctx in
  in_sim eng (fun () ->
      Chaos.partition chaos 0 1;
      ignore (Transport.send nd (Message.make ~dest:p [ data "lost" ]));
      Engine.sleep past_retry_budget_us;
      Alcotest.(check bool) "down during partition" true (Context.chan_down ctx ~src:0 ~dst:1);
      Chaos.heal chaos 0 1;
      Alcotest.(check bool) "heal revived the channel" false
        (Context.chan_down ctx ~src:0 ~dst:1);
      (match Transport.send nd (Message.make ~dest:p [ data "again" ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "send after heal");
      Engine.sleep 200_000.0);
  check Alcotest.(list string) "post-heal message arrives" [ "again" ] (drain_payloads p)

let test_short_partition_recovers_without_loss () =
  (* A partition shorter than the retry budget window: retransmission
     carries every message across the heal, nothing is lost. *)
  let eng, _, ctx, chaos = make_chaos_ctx Chaos.perfect in
  let p = Port.create ctx ~home:1 ~backlog:64 ~drop:Message.discard () in
  let nd = node ctx in
  let errors = ref 0 in
  Engine.spawn eng ~name:"sender" (fun () ->
      for i = 1 to 8 do
        match Transport.send nd (Message.make ~dest:p [ data (string_of_int i) ]) with
        | Ok () -> ()
        | Error _ -> incr errors
      done);
  Engine.spawn eng ~name:"partitioner" (fun () ->
      Chaos.partition chaos 0 1;
      Engine.sleep 5_000.0;
      Chaos.heal chaos 0 1);
  Engine.run eng;
  check Alcotest.int "no send errors" 0 !errors;
  check Alcotest.(list string) "all across the heal, in order" (expected_payloads 8)
    (drain_payloads p)

(* ---- the one remote-delivery path ------------------------------------------ *)

(* No chaos attached: remote sends still ride the sequenced channel, one
   data packet and one ack each, and a lossless wire never retransmits. *)
let test_lossless_send_rides_channel () =
  let eng, net, ctx = make_ctx () in
  let n = 24 in
  let got, errors = run_numbered_sends eng ctx ~n () in
  check Alcotest.(list string) "all delivered in order" (expected_payloads n) got;
  check Alcotest.int "no send errors" 0 errors;
  let stat key = Counters.value (Context.chan_stats ctx) key in
  check Alcotest.int "one data packet per send" n (stat "data_pkts");
  check Alcotest.int "one ack per data packet" n (stat "acks");
  check Alcotest.int "no retransmits" 0 (stat "retransmits");
  check Alcotest.int "data packets and acks on the wire" (2 * n) (Counters.value (Net.stats net) "messages")

let test_crash_propagates_port_death () =
  let eng, _, ctx, chaos = make_chaos_ctx Chaos.perfect in
  let remote = Port.create ctx ~home:1 ~drop:Message.discard () in
  let local = Port.create ctx ~home:0 ~drop:Message.discard () in
  let deaths = ref [] in
  Port.on_death remote (fun () -> deaths := "remote" :: !deaths);
  Port.on_death local (fun () -> deaths := "local" :: !deaths);
  in_sim eng (fun () -> Chaos.crash_host chaos 1);
  Alcotest.(check bool) "remote port died" false (Port.alive remote);
  Alcotest.(check bool) "local port survived" true (Port.alive local);
  check Alcotest.(list string) "only the crashed host's hook fired" [ "remote" ] !deaths;
  Alcotest.(check bool) "host marked down" false (Chaos.host_up chaos 1);
  in_sim eng (fun () -> Chaos.restart_host chaos 1);
  Alcotest.(check bool) "host back up" true (Chaos.host_up chaos 1)

let test_sends_to_crashed_host_fail_cleanly () =
  let eng, _, ctx, chaos = make_chaos_ctx Chaos.perfect in
  let p = Port.create ctx ~home:1 ~drop:Message.discard () in
  let nd = node ctx in
  in_sim eng (fun () ->
      Chaos.crash_host chaos 1;
      (* The proxy port died with its host. *)
      match Transport.send nd (Message.make ~dest:p [ data "x" ]) with
      | Error Transport.Send_invalid_port -> ()
      | Ok () | Error _ -> Alcotest.fail "expected invalid port after crash")

(* ---- chaos determinism ---------------------------------------------------- *)

let test_same_seed_same_faults () =
  let run () =
    let eng, _, ctx, chaos = make_chaos_ctx ~seed:7 { Chaos.perfect with drop = 0.2; duplicate = 0.1 } in
    let got, _ = run_numbered_sends eng ctx () in
    (got, Counters.to_list (Chaos.stats chaos), Counters.to_list (Context.chan_stats ctx))
  in
  let a = run () and b = run () in
  let pp = Alcotest.(pair (list string) (pair (list (pair string int)) (list (pair string int)))) in
  let flat (g, c, s) = (g, (c, s)) in
  check pp "identical replay" (flat a) (flat b)

let test_chaos_spec_parsing () =
  let c = Chaos.of_spec "seed=7,drop=0.1,dup=0.05,reorder=0.1,jitter=500" in
  let plan = Chaos.plan_for c ~src:0 ~dst:1 in
  check (Alcotest.float 1e-9) "drop" 0.1 plan.Chaos.drop;
  check (Alcotest.float 1e-9) "dup" 0.05 plan.Chaos.duplicate;
  check (Alcotest.float 1e-9) "reorder" 0.1 plan.Chaos.reorder;
  check (Alcotest.float 1e-9) "jitter" 500.0 plan.Chaos.jitter_us;
  Alcotest.check_raises "unknown key rejected"
    (Invalid_argument "Chaos.of_spec: unknown key frobnicate") (fun () ->
      ignore (Chaos.of_spec "frobnicate=1"))

(* ---- QCheck: exactly-once FIFO under random faults ----------------------- *)

(* Drop rates stay at or below 0.1, far below what it takes to exhaust
   the retry budget (11 consecutive silent rounds), so every send must
   land exactly once and in order whatever the plan drops, duplicates
   or reorders. *)
let exactly_once_fifo_prop =
  let open QCheck2 in
  let rate hi = Gen.float_bound_inclusive hi in
  let gen =
    Gen.(
      pair
        (tup5 (int_bound 10_000) (rate 0.1) (rate 0.3) (rate 0.3) (rate 5000.0))
        (list_size (int_range 1 40) (string_size ~gen:Gen.printable (int_range 0 64))))
  in
  Test.make ~name:"random faults: exactly-once FIFO delivery" ~count:30
    ~print:Print.(pair (tup5 int float float float float) (list string))
    gen (fun ((seed, drop, duplicate, reorder, jitter_us), payloads) ->
      let eng, _, ctx, _ =
        make_chaos_ctx ~seed { Chaos.drop; duplicate; reorder; jitter_us }
      in
      let p = Port.create ctx ~home:1 ~backlog:(List.length payloads + 1) ~drop:Message.discard () in
      let nd = node ctx in
      Engine.spawn eng ~name:"sender" (fun () ->
          List.iter
            (fun s -> ignore (Transport.send nd (Message.make ~dest:p [ data s ])))
            payloads);
      Engine.run eng;
      drain_payloads p = payloads)

let () =
  Alcotest.run "chaos"
    [
      ( "transport-timeouts",
        [
          Alcotest.test_case "timeout 0 is a non-blocking try" `Quick
            test_send_timeout_zero_nonblocking;
          Alcotest.test_case "timeout expires behind a full queue" `Quick
            test_send_timeout_expires_behind_full_queue;
        ] );
      ( "reliable-channel",
        [
          Alcotest.test_case "loss recovered by retransmission" `Quick
            test_loss_recovered_by_retransmission;
          Alcotest.test_case "duplicate storm deduped" `Quick test_duplicate_storm_is_deduped;
          Alcotest.test_case "reorder resequenced to FIFO" `Quick test_reorder_resequenced_fifo;
          Alcotest.test_case "partition exhausts retry budget" `Quick
            test_partition_exhausts_retry_budget;
          Alcotest.test_case "heal revives a down channel" `Quick test_heal_revives_channel;
          Alcotest.test_case "short partition loses nothing" `Quick
            test_short_partition_recovers_without_loss;
          Alcotest.test_case "lossless wire: one ack per send" `Quick
            test_lossless_send_rides_channel;
          QCheck_alcotest.to_alcotest exactly_once_fifo_prop;
        ] );
      ( "host-failure",
        [
          Alcotest.test_case "crash propagates port death" `Quick
            test_crash_propagates_port_death;
          Alcotest.test_case "send to crashed host fails cleanly" `Quick
            test_sends_to_crashed_host_fail_cleanly;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same faults" `Quick test_same_seed_same_faults;
          Alcotest.test_case "fault-plan spec grammar" `Quick test_chaos_spec_parsing;
        ] );
    ]
