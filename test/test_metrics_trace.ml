(* The observability spine: Metrics registry semantics (counter blocks,
   snapshot / delta / merge, QCheck'd against direct reads of a counter
   block) and
   Trace behaviour (span balance, ring wraparound, disabled no-op), and
   an end-to-end check that a kernel fault storm produces balanced,
   causally linked spans. *)

open Alcotest
module Engine = Mach_sim.Engine
module Trace = Mach_sim.Trace
module Metrics = Mach_util.Metrics

(* ---- Metrics ------------------------------------------------------------ *)

module Counters = Metrics.Counters

(* A one-counter block registered under [subsystem], the way every
   subsystem reports its counters. *)
let counter_block r ~subsystem =
  let layout = Counters.layout () in
  let n = Counters.declare layout "n" in
  let block = Counters.create layout in
  Metrics.counters r ~subsystem block;
  (block, n)

let test_counter_blocks () =
  let layout = Counters.layout () in
  let hits = Counters.declare layout "hits" in
  let bytes = Counters.declare layout "bytes" in
  let depth_peak = Counters.declare layout "depth_peak" in
  let r = Metrics.create () in
  let b = Counters.create layout in
  Metrics.counters r ~subsystem:"blk" b;
  Counters.incr b hits;
  Counters.incr b hits;
  Counters.add b bytes 4096;
  List.iter (Counters.peak b depth_peak) [ 3; 7; 5 ];
  let snap = Metrics.snapshot r in
  check (float 0.0) "incr" 2.0 (Metrics.get snap "blk.hits");
  check (float 0.0) "add" 4096.0 (Metrics.get snap "blk.bytes");
  check (float 0.0) "peak keeps the maximum" 7.0 (Metrics.get snap "blk.depth_peak");
  check
    (list (pair string int))
    "to_list in declaration order"
    [ ("hits", 2); ("bytes", 4096); ("depth_peak", 7) ]
    (Counters.to_list b);
  check int "get by id" 4096 (Counters.get b bytes);
  check int "value by name" 2 (Counters.value b "hits");
  check_raises "unknown name"
    (Invalid_argument "Metrics.Counters.value: unknown counter misses") (fun () ->
      ignore (Counters.value b "misses"));
  check_raises "duplicate name"
    (Invalid_argument "Metrics.Counters.declare: duplicate hits") (fun () ->
      ignore (Counters.declare layout "hits"));
  (* A second block of the layout counts on its own; the two sum under
     one subsystem. *)
  let b2 = Counters.create layout in
  Metrics.counters r ~subsystem:"blk" b2;
  Counters.incr b2 hits;
  check (float 0.0) "blocks sum" 3.0 (Metrics.get (Metrics.snapshot r) "blk.hits");
  Counters.reset b;
  check (list (pair string int)) "reset zeroes the block"
    [ ("hits", 0); ("bytes", 0); ("depth_peak", 0) ]
    (Counters.to_list b);
  check int "reset leaves other blocks" 1 (Counters.get b2 hits)

let test_registry_sources () =
  let r = Metrics.create () in
  let block = ref (0, 0) in
  Metrics.register_source r ~subsystem:"blk" (fun () ->
      let a, b = !block in
      [ ("a", a); ("b", b) ]);
  Metrics.gauge r ~subsystem:"blk" "depth" (fun () -> 7);
  block := (3, 4);
  let snap = Metrics.snapshot r in
  check (float 0.0) "source a" 3.0 (Metrics.get snap "blk.a");
  check (float 0.0) "source b" 4.0 (Metrics.get snap "blk.b");
  check (float 0.0) "gauge" 7.0 (Metrics.get snap "blk.depth");
  (* Duplicate keys (two sources of the same subsystem) sum. *)
  Metrics.register_source r ~subsystem:"blk" (fun () -> [ ("a", 10) ]);
  check (float 0.0) "duplicate keys sum" 13.0 (Metrics.get (Metrics.snapshot r) "blk.a")

let test_histogram_keys () =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~subsystem:"vm" "lat_us" in
  check (float 0.0) "empty histogram has count 0" 0.0
    (Metrics.get (Metrics.snapshot r) "vm.lat_us.count");
  List.iter (Metrics.observe h) [ 10.0; 20.0; 30.0 ];
  let snap = Metrics.snapshot r in
  check (float 0.0) "count" 3.0 (Metrics.get snap "vm.lat_us.count");
  check (float 0.001) "mean" 20.0 (Metrics.get snap "vm.lat_us.mean");
  check (float 0.001) "max" 30.0 (Metrics.get snap "vm.lat_us.max")

let test_delta_merge () =
  let r = Metrics.create () in
  let b, n = counter_block r ~subsystem:"s" in
  Counters.add b n 5;
  let before = Metrics.snapshot r in
  Counters.add b n 7;
  let after = Metrics.snapshot r in
  check (float 0.0) "delta" 7.0 (Metrics.get (Metrics.delta ~before ~after) "s.n");
  let merged = Metrics.merge [ before; after ] in
  check (float 0.0) "merge sums" 17.0 (Metrics.get merged "s.n");
  check (float 0.0) "missing key defaults to 0" 0.0 (Metrics.get after "s.zzz")

(* A snapshot of one histogram [vm.lat_us] fed [samples]. *)
let histogram_snapshot samples =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~subsystem:"vm" "lat_us" in
  List.iter (Metrics.observe h) samples;
  (r, h, Metrics.snapshot r)

let no_summaries s keys =
  List.iter (fun k -> check (option (float 0.0)) k None (Metrics.find s ("vm.lat_us." ^ k))) keys

(* A histogram's summaries are not counters. The delta over a second
   phase has that phase's own count and mean, and no percentile or max,
   which two snapshots cannot give exactly. *)
let test_histogram_delta () =
  let second = [ 3.0; 41.0; 5.5 ] in
  let r, h, before = histogram_snapshot [ 900.0; 1200.0; 7.5; 64000.0 ] in
  List.iter (Metrics.observe h) second;
  let d = Metrics.delta ~before ~after:(Metrics.snapshot r) in
  let _, _, fresh = histogram_snapshot second in
  let mean = Metrics.get fresh "vm.lat_us.mean" in
  check (float 0.0) "count" (Metrics.get fresh "vm.lat_us.count") (Metrics.get d "vm.lat_us.count");
  check (float (1e-9 *. mean)) "mean" mean (Metrics.get d "vm.lat_us.mean");
  no_summaries d [ "p50"; "p95"; "max" ]

(* Merged histograms sum their counts, weight their means by count and
   keep the larger max; a histogram with no samples changes nothing. *)
let test_histogram_merge () =
  let _, _, a = histogram_snapshot [ 10.0; 20.0; 30.0 ] in
  let _, _, b = histogram_snapshot [ 100.0 ] in
  let m = Metrics.merge [ a; b ] in
  check (float 0.0) "count" 4.0 (Metrics.get m "vm.lat_us.count");
  check (float 1e-9) "mean" 40.0 (Metrics.get m "vm.lat_us.mean");
  check (float 0.0) "max" 100.0 (Metrics.get m "vm.lat_us.max");
  no_summaries m [ "p50"; "p95" ];
  let _, _, empty = histogram_snapshot [] in
  check (list (pair string (float 0.0))) "merged with an empty one" a (Metrics.merge [ a; empty ])

(* QCheck: for any interleaving of increments and observations, the
   snapshot agrees with direct reads of the counter block and histogram,
   and delta(before, after) equals what happened in between. *)
let prop_snapshot_agrees =
  QCheck.Test.make ~count:200 ~name:"snapshot/delta agree with direct reads"
    QCheck.(pair (list (int_bound 100)) (list (int_bound 100)))
    (fun (first, second) ->
      let r = Metrics.create () in
      let b, c = counter_block r ~subsystem:"q" in
      let h = Metrics.histogram r ~subsystem:"q" "h" in
      List.iter (fun n -> Counters.add b c n; Metrics.observe h (float_of_int n)) first;
      let before = Metrics.snapshot r in
      List.iter (fun n -> Counters.add b c n) second;
      let after = Metrics.snapshot r in
      let sum l = List.fold_left ( + ) 0 l in
      Metrics.get before "q.n" = float_of_int (sum first)
      && Counters.get b c = sum first + sum second
      && Metrics.get after "q.n" = float_of_int (Counters.get b c)
      && Metrics.get (Metrics.delta ~before ~after) "q.n" = float_of_int (sum second)
      && Metrics.get before "q.h.count" = float_of_int (List.length first))

(* QCheck: the bounded histogram against Stats, which keeps every
   sample. Count, mean and max agree exactly; p50 and p95 lie within
   1/64 relative (each order statistic is read as its log bucket's lower
   bound); sets of integers up to 128 agree exactly. *)
let hist_vs_stats samples =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~subsystem:"h" "x" in
  let s = Mach_util.Stats.create () in
  List.iter
    (fun v ->
      Metrics.observe h v;
      Mach_util.Stats.add s v)
    samples;
  (Metrics.snapshot r, s)

let sample_gen =
  QCheck.(
    list_of_size Gen.(1 -- 300)
      (oneof [ float_range 0.01 1e7; map float_of_int (int_range 0 2000) ]))

let prop_histogram_bounds =
  QCheck.Test.make ~count:300 ~name:"histogram: exact count/mean/max, percentiles within 1/64"
    sample_gen (fun samples ->
      let snap, s = hist_vs_stats samples in
      let close p =
        let exact = Mach_util.Stats.percentile s p in
        let got = Metrics.get snap (Printf.sprintf "h.x.p%.0f" p) in
        Float.abs (got -. exact) <= exact /. 64.0
      in
      Metrics.get snap "h.x.count" = float_of_int (Mach_util.Stats.count s)
      && Metrics.get snap "h.x.mean" = Mach_util.Stats.mean s
      && Metrics.get snap "h.x.max" = Mach_util.Stats.max s
      && close 50.0 && close 95.0)

let prop_histogram_small_ints =
  QCheck.Test.make ~count:300 ~name:"histogram: integers up to 128 are exact"
    QCheck.(list_of_size Gen.(1 -- 300) (int_range 0 128))
    (fun ints ->
      let snap, s = hist_vs_stats (List.map float_of_int ints) in
      Metrics.get snap "h.x.p50" = Mach_util.Stats.percentile s 50.0
      && Metrics.get snap "h.x.p95" = Mach_util.Stats.percentile s 95.0)

let test_observe_no_alloc () =
  let h = Metrics.histogram (Metrics.create ()) ~subsystem:"h" "x" in
  let samples = List.init 100 (fun i -> float_of_int (i * i) +. 0.5) in
  let rec feed = function
    | [] -> ()
    | v :: rest ->
      Metrics.observe h v;
      feed rest
  in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    feed samples
  done;
  let after = Gc.minor_words () in
  check (float 0.0) "10 000 observes allocate nothing" 0.0 (after -. before)

let test_json_shape () =
  let r = Metrics.create () in
  let b, k = counter_block r ~subsystem:"j" in
  Counters.add b k 2;
  let json = Metrics.to_json (Metrics.snapshot r) in
  check bool "flat key: value pair present" true
    (let sub = {|"j.n": 2|} in
     let rec find i =
       if i + String.length sub > String.length json then false
       else String.sub json i (String.length sub) = sub || find (i + 1)
     in
     find 0)

(* ---- Trace -------------------------------------------------------------- *)

(* Spans/points recorded outside any engine fiber (timer context): the
   trace must cope with having no fiber identity. *)
let test_span_balance () =
  let eng = Engine.create () in
  let tr = Trace.create eng in
  Trace.set_enabled tr true;
  Engine.spawn eng ~name:"t" (fun () ->
      let a = Trace.span_open tr ~subsystem:"x" ~label:"outer" in
      let b = Trace.span_open tr ~subsystem:"x" ~label:"inner" in
      Trace.point tr ~subsystem:"x" "tick";
      Trace.span_close tr ~subsystem:"x" ~label:"done" b;
      Trace.span_close tr ~subsystem:"x" ~label:"done" a);
  Engine.run eng;
  let opens, closes = Trace.balance tr in
  check int "opens" 2 opens;
  check int "closes" 2 closes;
  check int "unclosed" 0 (Trace.unclosed tr);
  (match Trace.spans tr with
  | [ inner; outer ] ->
    check string "inner label" "inner" inner.Trace.sp_label;
    check int "inner parented on outer" outer.Trace.sp_id inner.Trace.sp_parent;
    check int "outer is a root" (-1) outer.Trace.sp_parent
  | spans -> failf "expected 2 spans, got %d" (List.length spans));
  (* The point inside both spans attributes to the innermost. *)
  let tick = List.find (fun ev -> ev.Trace.ev_label = "tick") (Trace.events tr) in
  check bool "point attributed to inner span" true (tick.Trace.ev_span >= 0)

let test_ring_wraparound () =
  let eng = Engine.create () in
  let tr = Trace.create ~capacity:8 eng in
  Trace.set_enabled tr true;
  Engine.spawn eng ~name:"t" (fun () ->
      for i = 1 to 20 do
        Trace.point tr ~subsystem:"w" (string_of_int i)
      done);
  Engine.run eng;
  let events = Trace.events tr in
  check int "ring keeps capacity" 8 (List.length events);
  check int "recorded counts everything" 20 (Trace.recorded tr);
  check int "dropped = recorded - buffered" 12 (Trace.dropped tr);
  (* The newest events survive, oldest first. *)
  check string "oldest surviving" "13" (List.hd events).Trace.ev_label;
  check string "newest surviving" "20" (List.nth events 7).Trace.ev_label

let test_disabled_noop () =
  let eng = Engine.create () in
  let tr = Trace.create eng in
  Engine.spawn eng ~name:"t" (fun () ->
      let s = Trace.span_open tr ~subsystem:"x" ~label:"a" in
      check int "disabled span_open returns -1" (-1) s;
      Trace.point tr ~subsystem:"x" "p";
      Trace.span_close tr ~subsystem:"x" ~label:"a" s;
      Trace.adopt tr s (fun () -> Trace.point tr ~subsystem:"x" "q"));
  Engine.run eng;
  check int "nothing recorded" 0 (Trace.recorded tr);
  check (list pass) "no events" [] (Trace.events tr)

let test_adopt_attribution () =
  let eng = Engine.create () in
  let tr = Trace.create eng in
  Trace.set_enabled tr true;
  let carried = ref (-1) in
  Engine.spawn eng ~name:"opener" (fun () ->
      let s = Trace.span_open tr ~subsystem:"x" ~label:"work" in
      carried := s;
      Engine.sleep 10.0;
      Trace.span_close tr ~subsystem:"x" ~label:"done" s);
  Engine.spawn eng ~name:"server" (fun () ->
      Engine.sleep 5.0;
      (* Another fiber adopts the carried id, as a service loop does
         with the span found in a message header. *)
      Trace.adopt tr !carried (fun () -> Trace.point tr ~subsystem:"y" "served"));
  Engine.run eng;
  let served = List.find (fun ev -> ev.Trace.ev_label = "served") (Trace.events tr) in
  check int "cross-fiber point attributed to adopted span" !carried served.Trace.ev_span;
  check int "span closed across the adoption" 0 (Trace.unclosed tr)

(* Every host of a cluster boots kernel fibers with the same names
   (pager-service, task-server, ...) and records into the one cluster
   trace. A fiber's open spans and processor are its own, whatever
   another host's namesake is doing. *)
let test_cluster_namesakes () =
  let module Kctx = Mach.Kctx in
  let module Message = Mach_ipc.Message in
  let cluster = Mach.Kernel.create_cluster ~hosts:2 () in
  let eng = cluster.Mach.Kernel.c_engine in
  let k0 = Mach.Kernel.kctx cluster.c_kernels.(0) in
  let k1 = Mach.Kernel.kctx cluster.c_kernels.(1) in
  let tr = k0.Kctx.trace in
  check bool "one cluster trace" true (tr == k1.Kctx.trace);
  Trace.set_enabled tr true;
  let opened label =
    let id = ref (-1) in
    Engine.spawn eng ~name:("client-" ^ label) (fun () ->
        id := Trace.span_open tr ~subsystem:"t" ~label;
        Engine.sleep 100.0;
        Trace.span_close tr ~subsystem:"t" ~label:"done" !id);
    id
  in
  let span_a = opened "a" and span_b = opened "b" in
  let dest = Mach_ipc.Port.create cluster.c_ctx ~home:0 ~drop:Message.discard () in
  let child = ref (-1) and sent = ref None in
  Engine.spawn eng ~name:"twin" (fun () ->
      Engine.sleep 1.0;
      Trace.adopt tr !span_a (fun () ->
          (* Blocked while host 1's twin adopts B and computes. *)
          Engine.sleep 10.0;
          Trace.point tr ~subsystem:"t" "p";
          child := Trace.span_open tr ~subsystem:"t" ~label:"child";
          Trace.span_close tr ~subsystem:"t" ~label:"done" !child;
          let msg = Message.make ~dest [] in
          ignore (Mach_ipc.Transport.send k0.Kctx.node msg);
          sent := Some msg));
  Engine.spawn eng ~name:"twin" (fun () ->
      Engine.sleep 5.0;
      Trace.adopt tr !span_b (fun () -> Mach_sim.Sched.compute k1.Kctx.sched 50.0));
  Engine.run eng ~until:1_000.0;
  let ev label = List.find (fun ev -> ev.Trace.ev_label = label) (Trace.events tr) in
  let p = ev "p" in
  check int "point attributed to A" !span_a p.Trace.ev_span;
  check int "point stamped with no CPU: host 1's twin holds that one" (-1) p.Trace.ev_cpu;
  (match Trace.find_span tr !child with
  | Some sp -> check int "child span parented on A" !span_a sp.Trace.sp_parent
  | None -> fail "child span not recorded");
  check int "send stamped with A" !span_a (ev "send").Trace.ev_span;
  match !sent with
  | Some msg -> check int "header carries A" !span_a msg.Message.header.Message.trace_span
  | None -> fail "send did not run"

(* ---- end to end: a kernel fault storm ----------------------------------- *)

(* The canned storm behind machsim stat/trace, [rounds] pages per
   phase: anonymous zero-fill, soft refaults after pmap eviction, and
   external-pager faults that ride IPC to a user-level manager. *)
let rounds = 40

let storm ~traced =
  match Mach_workloads.Fault_storm.run ~rounds ~traced with
  | sys -> sys
  | exception Failure msg -> failf "storm did not complete (traced=%b): %s" traced msg

let faults_of sys = Counters.get (Mach.Kernel.stats sys.Mach.Kernel.kernel) Mach.Vm_types.s_faults

let fault_spans tr =
  List.filter (fun sp -> sp.Trace.sp_sub = "vm" && sp.Trace.sp_label = "fault") (Trace.spans tr)

let test_kernel_fault_spans () =
  let sys = storm ~traced:true in
  let kernel = sys.Mach.Kernel.kernel in
  let tr = Mach.Kernel.trace kernel in
  let opens, closes = Trace.balance tr in
  check bool "some spans" true (opens > 0);
  check int "balanced" opens closes;
  check int "none left open" 0 (Trace.unclosed tr);
  let faults = fault_spans tr in
  let n = faults_of sys in
  check int "every fault spanned" n (List.length faults);
  check bool "at least one fault per page written" true (List.length faults >= rounds);
  (* One thread faults in sequence, so close order is fault order: the
     first [rounds] spans are the anonymous-write phase. *)
  List.iteri
    (fun i sp ->
      if i < rounds then
        check string "anonymous touches zero-fill" "zero_fill" sp.Trace.sp_resolution)
    faults;
  (* The same storm shows up in the registry, including the fault
     histogram fed by the fault handler. *)
  let snap = Metrics.snapshot (Mach.Kernel.metrics kernel) in
  check (float 0.0) "registry saw the faults" (float_of_int n) (Metrics.get snap "vm.faults");
  check (float 0.0) "fault histogram observed every fault" (float_of_int n)
    (Metrics.get snap "vm.fault_us.count")

(* Tracing charges no simulated time when on and is a branch when off,
   so enabling it can never perturb an experiment's numbers. *)
let test_traced_untraced_identical () =
  let on = storm ~traced:true in
  let tr = Mach.Kernel.trace on.Mach.Kernel.kernel in
  let fault_ids = List.map (fun sp -> sp.Trace.sp_id) (fault_spans tr) in
  check bool "a fault span crossed into the IPC layer" true
    (List.exists
       (fun ev -> ev.Trace.ev_sub = "ipc" && List.mem ev.Trace.ev_span fault_ids)
       (Trace.events tr));
  let off = storm ~traced:false in
  let tr_off = Mach.Kernel.trace off.Mach.Kernel.kernel in
  check int "untraced run records nothing" 0 (Trace.recorded tr_off);
  check (list pass) "untraced run buffers no events" [] (Trace.events tr_off);
  check (float 0.0) "identical simulated time"
    (Engine.now on.Mach.Kernel.engine)
    (Engine.now off.Mach.Kernel.engine);
  check int "identical fault counts" (faults_of on) (faults_of off)

let () =
  run "metrics_trace"
    [
      ( "metrics",
        [
          test_case "sources and gauges" `Quick test_registry_sources;
          test_case "histogram snapshot keys" `Quick test_histogram_keys;
          test_case "delta and merge" `Quick test_delta_merge;
          test_case "json shape" `Quick test_json_shape;
          QCheck_alcotest.to_alcotest prop_snapshot_agrees;
          QCheck_alcotest.to_alcotest prop_histogram_bounds;
          QCheck_alcotest.to_alcotest prop_histogram_small_ints;
          test_case "observe allocates nothing" `Quick test_observe_no_alloc;
          test_case "counter blocks" `Quick test_counter_blocks;
          test_case "histogram delta is the phase's" `Quick test_histogram_delta;
          test_case "histogram merge" `Quick test_histogram_merge;
        ] );
      ( "trace",
        [
          test_case "span open/close balance" `Quick test_span_balance;
          test_case "ring wraparound" `Quick test_ring_wraparound;
          test_case "disabled mode is a no-op" `Quick test_disabled_noop;
          test_case "cross-fiber adoption" `Quick test_adopt_attribution;
          test_case "cluster namesakes keep their own spans" `Quick test_cluster_namesakes;
        ] );
      ( "kernel",
        [
          test_case "fault storm: balanced spans + registry" `Quick test_kernel_fault_spans;
          test_case "fault storm: traced and untraced runs are sim-identical" `Quick
            test_traced_untraced_identical;
        ] );
    ]
