(* The benchmark's contract in one place: every metric it reports, with
   its unit, direction and (end-to-end only) regression bound. The root
   BENCHMARK.json is generated from this table (perf.exe --spec) and the
   runtest smoke fails if the two drift apart. *)

type metric = { name : string; unit_ : string; higher_is_better : bool; bound : float option }

let e2e name unit_ higher_is_better bound = { name; unit_; higher_is_better; bound = Some bound }
let layer name unit_ higher_is_better = { name; unit_; higher_is_better; bound = None }

(* Simulated metrics repeat exactly under one seed; across seeds they
   move by the sampling noise of the seeded inputs. Host metrics carry
   the machine's run-to-run noise. Set-up time is the median of several
   set-ups per run and carries the largest bound. *)
let end_to_end =
  [
    e2e "sim_ops_per_s" "ops/sim-s" true 0.05;
    e2e "sim_op_p50_us" "sim-us" false 0.10;
    e2e "sim_op_p99_us" "sim-us" false 0.05;
    e2e "host_ops_per_s" "ops/cpu-s" true 0.25;
    e2e "setup_s" "s" false 0.25;
    e2e "peak_heap_mb" "MB" false 0.05;
  ]

let per_layer =
  [
    layer "fault.touch_us_p50" "sim-us" false;
    layer "fault.touch_us_p99" "sim-us" false;
    layer "fault.per_op" "faults/op" false;
    layer "fault.fast_ratio" "ratio" true;
    layer "fault.hint_hit_ratio" "ratio" true;
    layer "fault.zero_fill" "count" false;
    layer "fault.cow_faults" "count" false;
    layer "fault.cow_steal_ratio" "ratio" true;
    layer "fault.cow_batched" "count" true;
    layer "fault.slow_busy" "count" false;
    layer "fault.slow_lock" "count" false;
    layer "fault.slow_error" "count" false;
    layer "vm_map.fork_us_p50" "sim-us" false;
    layer "vm_map.exit_us_p50" "sim-us" false;
    layer "vm_object.chain_depth_max" "count" false;
    layer "vm_object.collapses" "count" false;
    layer "vm_object.created_per_op" "objects/op" false;
    layer "vm_object.cache_evictions" "count" false;
    layer "pageout.pageouts_per_op" "pages/op" false;
    layer "pageout.pages_per_data_write" "pages" true;
    layer "pageout.reactivations" "count" false;
    layer "pageout.clean_hits" "count" true;
    layer "pageout.free_frames_min" "frames" true;
    layer "pager_client.data_requests_per_op" "msgs/op" false;
    layer "pager_client.pages_per_request" "pages" true;
    layer "pager_client.flushes" "count" false;
    layer "pager_client.unlock_requests" "count" false;
    layer "pager_client.data_unavailable" "count" false;
    layer "minimal_fs.read_file_us_p50" "sim-us" false;
    layer "minimal_fs.read_file_us_p99" "sim-us" false;
    layer "minimal_fs.write_file_us_p50" "sim-us" false;
    layer "minimal_fs.link_us_p50" "sim-us" false;
    layer "minimal_fs.pages_served" "pages" false;
    layer "minimal_fs.writes" "msgs" false;
    layer "default_pager.pages_stored" "pages" false;
    layer "default_pager.requests" "msgs" false;
    layer "disk.ops_per_op" "ios/op" false;
    layer "disk.bytes_per_op" "B/op" false;
    layer "transport.rpc_inline_us_p50" "sim-us" false;
    layer "transport.rpc_inline_us_p99" "sim-us" false;
    layer "transport.rpc_ool_us_p50" "sim-us" false;
    layer "transport.rpc_ool_us_p99" "sim-us" false;
    layer "transport.msgs_per_op" "msgs/op" false;
    layer "transport.rpc_fastpath_ratio" "ratio" true;
    layer "transport.copyins" "count" true;
    layer "transport.lazy_copyout_faults" "count" false;
    layer "transport.bytes_copied_per_op" "B/op" false;
    layer "transport.bytes_mapped_per_op" "B/op" true;
    layer "transport.spurious_wakeups" "count" false;
    layer "sched.busy_pct" "%" false;
    layer "sched.switches_per_op" "switches/op" false;
    layer "sched.queued_ratio" "ratio" false;
    layer "sched.avg_queue_depth" "threads" false;
    layer "sched.steals" "count" false;
    layer "sched.preemptions" "count" false;
    layer "sched.handoff_claim_ratio" "ratio" true;
    layer "net.messages_per_op" "msgs/op" false;
    layer "net.bytes_per_op" "B/op" false;
    layer "net.retransmits" "count" false;
    layer "net.dropped" "count" false;
    layer "netmem.invalidations_per_op" "msgs/op" false;
    layer "netmem.grants_per_op" "grants/op" false;
    layer "netmem.requests" "msgs" false;
    layer "gc.alloc_words_per_op" "words/op" false;
    layer "gc.promoted_words_per_op" "words/op" false;
    layer "gc.major_collections" "count" false;
    layer "trace.overhead_pct" "%" false;
    layer "fault.span_us.fast" "sim-us" false;
    layer "fault.span_us.zero_fill" "sim-us" false;
    layer "fault.span_us.cow_copy" "sim-us" false;
    layer "fault.span_us.cow_steal" "sim-us" false;
    layer "fault.span_us.pager" "sim-us" false;
    layer "fault.span_us.clean_hit" "sim-us" false;
    layer "fault.span_n.fast" "count" true;
    layer "fault.span_n.zero_fill" "count" true;
    layer "fault.span_n.cow_copy" "count" true;
    layer "fault.span_n.cow_steal" "count" true;
    layer "fault.span_n.pager" "count" true;
    layer "fault.span_n.clean_hit" "count" true;
    layer "fault.span_window" "count" true;
    layer "op.fault_share_pct" "%" false;
    layer "op.samples" "count" true;
    layer "op.p99_tail_n" "count" true;
  ]

(* {2 JSON} BENCHMARK.json and the result line are nested, which
   Metrics.to_json (flat "key": number) cannot express, so these two
   small printers write them. *)

(* The shortest decimal that reads back as exactly [v]: every digit of a
   measurement, and 0.05 rather than 0.050000000000000003. *)
let number v =
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  go 1

let benchmark_json ~command ~paths ~run_seconds (workloads : (string * string) list) =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let list_of f xs = String.concat ",\n" (List.map f xs) in
  let metric m =
    Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"better\": %S%s}" m.name m.unit_
      (if m.higher_is_better then "higher" else "lower")
      (match m.bound with Some v -> Printf.sprintf ", \"bound\": %s" (number v) | None -> "")
  in
  add "{\n";
  add
    (Printf.sprintf "  \"command\": [%s],\n"
       (String.concat ", " (List.map (Printf.sprintf "%S") command)));
  add
    (Printf.sprintf "  \"paths\": [%s],\n"
       (String.concat ", " (List.map (Printf.sprintf "%S") paths)));
  add (Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds);
  add "  \"workloads\": [\n";
  add
    (list_of
       (fun (name, why) -> Printf.sprintf "    {\"name\": %S, \"why\": %S}" name why)
       workloads);
  add "\n  ],\n  \"end_to_end\": [\n";
  add (list_of metric end_to_end);
  add "\n  ],\n  \"per_layer\": [\n";
  add (list_of metric per_layer);
  add "\n  ]\n}\n";
  Buffer.contents b

let result_line ~correct ~attempted ~failed (values : (metric * float) list) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (m, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number v) m.unit_)
          values))

(* The value of metric [name] in a result line (for --repeat). *)
let value_in_line line name =
  let key = Printf.sprintf "%S: {\"value\": " name in
  let kl = String.length key and n = String.length line in
  let rec find i =
    if i + kl > n then None
    else if String.sub line i kl = key then
      let j = ref (i + kl) in
      while !j < n && line.[!j] <> ',' && line.[!j] <> '}' do
        incr j
      done;
      float_of_string_opt (String.sub line (i + kl) (!j - i - kl))
    else find (i + 1)
  in
  find 0
