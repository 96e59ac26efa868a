(* Per-layer metrics, taken from outside lib/: registry counter deltas
   over the measured phase, public probes read before and after it
   (scheduler busy time, disk and pager counters, netmem coherence
   counts), the benchmark's own timings of each call it makes into a
   layer, GC counts, and, in a traced run, the fault spans left in the
   trace ring. *)

open Mach
module Stats = Mach_vm.Pager_runtime.Stats
module Sched = Mach_sim.Sched
module Netmem = Mach_pagers.Netmem

type probe = {
  reg : Metrics.snapshot;  (** merged over every host *)
  busy_us : float;
  disk_ops : int;
  disk_bytes : int;
  fs_pages_served : int;
  fs_writes : int;
  netmem_requests : int;
  invalidations : int;
  grants : int;
  pages_stored : int;
}

(* The fs disk and every host's paging disk. *)
let disks (inst : Workload.instance) =
  Option.to_list inst.Workload.fs_disk
  @ Array.to_list (Array.map (fun k -> k.Ktypes.k_paging_disk) inst.Workload.kernels)

let sum_kernels (inst : Workload.instance) f =
  Array.fold_left (fun acc k -> acc + f k) 0 inst.Workload.kernels

let fs_stat (inst : Workload.instance) f =
  match inst.Workload.fs with
  | Some fs -> f (Mach_pagers.Minimal_fs.runtime_stats fs)
  | None -> 0

let probe (inst : Workload.instance) =
  let ds = disks inst in
  {
    reg =
      Metrics.merge
        (Array.to_list (Array.map (fun k -> Metrics.snapshot (Kernel.metrics k)) inst.kernels));
    busy_us =
      Array.fold_left (fun acc k -> acc +. Sched.busy_us k.Ktypes.k_sched) 0.0 inst.kernels;
    disk_ops = List.fold_left (fun acc d -> acc + Disk.ops d) 0 ds;
    disk_bytes = List.fold_left (fun acc d -> acc + Disk.bytes_read d + Disk.bytes_written d) 0 ds;
    fs_pages_served = fs_stat inst (fun s -> s.Stats.s_pages_served);
    fs_writes = fs_stat inst (fun s -> s.Stats.s_writes);
    netmem_requests =
      (match inst.netmem with Some nm -> (Netmem.runtime_stats nm).Stats.s_requests | None -> 0);
    invalidations = (match inst.netmem with Some nm -> Netmem.invalidations nm | None -> 0);
    grants = (match inst.netmem with Some nm -> Netmem.grants nm | None -> 0);
    pages_stored =
      sum_kernels inst (fun k ->
          match k.Ktypes.k_default_pager with Some dp -> Default_pager.pages_stored dp | None -> 0);
  }

let ratio x y = if y = 0.0 then 0.0 else x /. y

let cpus (inst : Workload.instance) =
  sum_kernels inst (fun k -> Sched.cpu_count k.Ktypes.k_sched)

(* Counter-derived metrics: identical in traced and untraced passes. *)
let derive (inst : Workload.instance) (m : Meter.t) ~elapsed_us (b : probe) (a : probe) =
  let ops = float_of_int (Lat.count m.Meter.op) in
  let d k = Metrics.get a.reg k -. Metrics.get b.reg k in
  let vm k = d ("vm." ^ k) and ipc k = d ("ipc." ^ k) and sched k = d ("sched." ^ k) in
  let per_op x = ratio x ops in
  let di f = float_of_int (f a - f b) in
  let p50 lat = Lat.percentile lat 50.0 in
  let p99 lat = Lat.percentile lat 99.0 in
  let cow_resolved = vm "cow_faults" +. vm "cow_batched" in
  [
    ("fault.touch_us_p50", p50 m.Meter.touch);
    ("fault.touch_us_p99", p99 m.Meter.touch);
    ("fault.per_op", per_op (vm "faults"));
    ("fault.fast_ratio", ratio (vm "fast_faults") (vm "faults"));
    ("fault.hint_hit_ratio", ratio (vm "hint_hits") (vm "hint_hits" +. vm "hint_misses"));
    ("fault.zero_fill", vm "zero_fill");
    ("fault.cow_faults", vm "cow_faults");
    ("fault.cow_steal_ratio", ratio (vm "cow_steals") cow_resolved);
    ("fault.cow_batched", vm "cow_batched");
    ("fault.slow_busy", vm "slow_busy");
    ("fault.slow_lock", vm "slow_lock");
    ("fault.slow_error", vm "slow_error");
    ("vm_map.fork_us_p50", p50 m.Meter.fork);
    ("vm_map.exit_us_p50", p50 m.Meter.exit);
    ("vm_object.chain_depth_max", float_of_int m.Meter.chain_depth_max);
    ("vm_object.collapses", vm "collapses");
    ("vm_object.created_per_op", per_op (vm "objects_created"));
    ("vm_object.cache_evictions", vm "object_cache_evictions");
    ("pageout.pageouts_per_op", per_op (vm "pageouts"));
    ("pageout.pages_per_data_write", ratio (vm "pageouts") (vm "data_writes"));
    ("pageout.reactivations", vm "reactivations");
    ("pageout.clean_hits", vm "clean_hits");
    ( "pageout.free_frames_min",
      float_of_int (if m.Meter.free_frames_min = max_int then 0 else m.Meter.free_frames_min) );
    ("pager_client.data_requests_per_op", per_op (vm "data_requests"));
    ("pager_client.pages_per_request", ratio (vm "pageins") (vm "data_requests"));
    ("pager_client.flushes", vm "flushes");
    ("pager_client.unlock_requests", vm "unlock_requests");
    ("pager_client.data_unavailable", vm "data_unavailable");
    ("minimal_fs.read_file_us_p50", p50 m.Meter.read_file);
    ("minimal_fs.read_file_us_p99", p99 m.Meter.read_file);
    ("minimal_fs.write_file_us_p50", p50 m.Meter.write_file);
    ("minimal_fs.link_us_p50", p50 m.Meter.link);
    ("minimal_fs.pages_served", di (fun p -> p.fs_pages_served));
    ("minimal_fs.writes", di (fun p -> p.fs_writes));
    ("default_pager.pages_stored", float_of_int a.pages_stored);
    ("default_pager.requests", d "pager.default-pager.requests");
    ("disk.ops_per_op", per_op (di (fun p -> p.disk_ops)));
    ("disk.bytes_per_op", per_op (di (fun p -> p.disk_bytes)));
    ("transport.rpc_inline_us_p50", p50 m.Meter.rpc_inline);
    ("transport.rpc_inline_us_p99", p99 m.Meter.rpc_inline);
    ("transport.rpc_ool_us_p50", p50 m.Meter.rpc_ool);
    ("transport.rpc_ool_us_p99", p99 m.Meter.rpc_ool);
    ("transport.msgs_per_op", per_op (ipc "msgs_sent"));
    ("transport.rpc_fastpath_ratio", ratio (ipc "rpc_fastpath") (ipc "msgs_sent"));
    ("transport.copyins", ipc "copyins");
    ("transport.lazy_copyout_faults", ipc "lazy_copyout_faults");
    ("transport.bytes_copied_per_op", per_op (ipc "bytes_copied"));
    ("transport.bytes_mapped_per_op", per_op (ipc "bytes_mapped"));
    ("transport.spurious_wakeups", ipc "spurious_wakeups");
    ( "sched.busy_pct",
      100.0 *. ratio (a.busy_us -. b.busy_us) (float_of_int (cpus inst) *. elapsed_us) );
    ("sched.switches_per_op", per_op (sched "switches"));
    ( "sched.queued_ratio",
      ratio (sched "enqueues")
        (sched "enqueues" +. sched "direct_dispatches" +. sched "handoff_claims") );
    ("sched.avg_queue_depth", ratio (sched "queue_depth_sum") (sched "enqueues"));
    ("sched.steals", sched "steals");
    ("sched.preemptions", sched "preemptions");
    ("sched.handoff_claim_ratio", ratio (sched "handoff_claims") (ipc "handoffs"));
    ("net.messages_per_op", per_op (d "net.messages"));
    ("net.bytes_per_op", per_op (d "net.bytes_carried"));
    ("net.retransmits", d "net.retransmits");
    ("net.dropped", d "net.dropped");
    ("netmem.invalidations_per_op", per_op (di (fun p -> p.invalidations)));
    ("netmem.grants_per_op", per_op (di (fun p -> p.grants)));
    ("netmem.requests", di (fun p -> p.netmem_requests));
    ("op.samples", ops);
    ("op.p99_tail_n", float_of_int (Lat.beyond_of_sorted (Lat.sorted m.Meter.op) 99.0));
  ]

(* The simulator's own work, over [ops] ops of an untraced stretch:
   deterministic, so an exact proxy for host speed. *)
let gc ~ops (b : Gc.stat) (a : Gc.stat) =
  let alloc s = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  let per_op x = ratio x (float_of_int ops) in
  [
    ("gc.alloc_words_per_op", per_op (alloc a -. alloc b));
    ("gc.promoted_words_per_op", per_op (a.Gc.promoted_words -. b.Gc.promoted_words));
    ("gc.major_collections", float_of_int (a.Gc.major_collections - b.Gc.major_collections));
  ]

let span_labels = [ "fast"; "zero_fill"; "cow_copy"; "cow_steal"; "pager"; "clean_hit" ]

(* Reductions over the final ring window of a traced run. *)
let of_trace tr =
  let spans = Trace.spans tr in
  let faults =
    List.filter (fun sp -> sp.Trace.sp_sub = "vm" && sp.Trace.sp_label = "fault") spans
  in
  let ops = Hashtbl.create 4096 in
  List.iter
    (fun sp ->
      if sp.Trace.sp_sub = "bench" && sp.Trace.sp_label = "op" then
        Hashtbl.replace ops sp.Trace.sp_id (Trace.span_duration sp, ref 0.0))
    spans;
  List.iter
    (fun sp ->
      match Hashtbl.find_opt ops sp.Trace.sp_parent with
      | Some (_, covered) -> covered := !covered +. Trace.span_duration sp
      | None -> ())
    faults;
  let op_us, fault_us =
    Hashtbl.fold (fun _ (d, c) (o, f) -> (o +. d, f +. !c)) ops (0.0, 0.0)
  in
  List.concat_map
    (fun label ->
      let lat = Lat.create 0 in
      List.iter
        (fun sp -> if sp.Trace.sp_resolution = label then Lat.add lat (Trace.span_duration sp))
        faults;
      [
        ("fault.span_us." ^ label, Lat.percentile lat 50.0);
        ("fault.span_n." ^ label, float_of_int (Lat.count lat));
      ])
    span_labels
  @ [
      ("fault.span_window", float_of_int (List.length faults));
      ("op.fault_share_pct", 100.0 *. ratio fault_us op_us);
    ]
