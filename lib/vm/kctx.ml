open Vm_types
module Engine = Mach_sim.Engine
module Sched = Mach_sim.Sched
module Trace = Mach_sim.Trace
module Waitq = Mach_sim.Waitq
module Metrics = Mach_util.Metrics
module Phys_mem = Mach_hw.Phys_mem
module Pmap = Mach_hw.Pmap
module Port_space = Mach_ipc.Port_space

type t = {
  engine : Engine.t;
  ctx : Mach_ipc.Context.t;
  host : int;
  params : Mach_hw.Machine.params;
  sched : Sched.t;
  mem : Phys_mem.t;
  page_size : int;
  node : Mach_ipc.Transport.node;
  kspace : Port_space.t;
  queues : Page_queues.t;
  stats : stats;
  metrics : Metrics.registry;
  trace : Trace.t;
  fault_hist : Metrics.histogram;
  objects_by_port : (int, obj) Hashtbl.t;
  objects_by_request : (int, obj) Hashtbl.t;
  cached_objects : obj Mach_util.Dlist.t;
  cached_index : (int, obj Mach_util.Dlist.node) Hashtbl.t;
  mutable object_cache_cap : int;
  mutable default_pager_port : port option;
  mutable next_obj_id : int;
  reserved_frames : int;
  free_wait : Waitq.t;
  pageout_wanted : Waitq.t;
  pager_timeout_us : float;
  holdings : (int, holding) Hashtbl.t;
  mutable next_write_id : int;
  mutable rescue_writer : (bytes -> unit) option;
  mutable enable_collapse : bool;
      (** merge single-referenced anonymous shadow chains (ablation A1) *)
  cow_batch_hist : Metrics.histogram;
      (** pages resolved per COW write fault (1 = no clustering won) *)
}

let data_write_release_timeout_us = 500_000.0
let cluster_pages = 8

let fresh_obj_id t =
  let id = t.next_obj_id in
  t.next_obj_id <- id + 1;
  id

let round_page t addr = (addr + t.page_size - 1) land lnot (t.page_size - 1)

let try_alloc_frame t ~privileged =
  let floor_frames = if privileged then 0 else t.reserved_frames in
  if Phys_mem.free_frames t.mem > floor_frames then Phys_mem.alloc t.mem else None

(* Watermarks on the free-frame count. Below the high watermark the
   pageout daemon works; below the low watermark unprivileged allocators
   additionally throttle while laundry is in flight, letting in-progress
   cleans complete instead of racing the daemon for the last frames. *)
let free_target t = max (2 * t.reserved_frames) (Phys_mem.total_frames t.mem / 20)
let free_low_watermark t = max (t.reserved_frames + 1) (free_target t / 2)
let need_pageout t = Phys_mem.free_frames t.mem < free_target t

let alloc_frame t ~privileged =
  let rec loop () =
    let below_low = Phys_mem.free_frames t.mem < free_low_watermark t in
    if
      (not privileged) && below_low
      && Page_queues.laundry_count t.queues > 0
    then begin
      (* Laundry in flight: a release (or the rescue timer) will free
         frames; wait for it rather than draining toward the reserve. *)
      Waitq.broadcast t.pageout_wanted;
      Waitq.wait t.free_wait;
      loop ()
    end
    else
      match try_alloc_frame t ~privileged with
      | Some f ->
        if need_pageout t then Waitq.broadcast t.pageout_wanted;
        f
      | None ->
        Waitq.broadcast t.pageout_wanted;
        Waitq.wait t.free_wait;
        loop ()
  in
  loop ()

let free_frame t f =
  Phys_mem.free t.mem f;
  Waitq.broadcast t.free_wait

(* Every CPU cost in the VM layer — fault service, map operations,
   page copies, the pageout daemon's accounting — occupies one of the
   host's processors for its duration. *)
let charge t us = if us > 0.0 then Sched.compute t.sched us

let create engine ctx ~host ~params ~mem ?reserved_frames ?(pager_timeout_us = 2_000_000.0)
    ?trace () =
  let reserved =
    match reserved_frames with
    | Some r -> r
    | None -> max 2 (Phys_mem.total_frames mem / 50)
  in
  let sched =
    Sched.create engine ~cpus:params.Mach_hw.Machine.cpus
      ~quantum_us:params.Mach_hw.Machine.quantum_us
      ~context_switch_us:params.Mach_hw.Machine.context_switch_us ()
  in
  (* The host's observability spine: a metrics registry (per host) and
     a causal trace (shared across a cluster's hosts when the caller
     passes one trace to every boot). *)
  let metrics = Metrics.create () in
  let trace = match trace with Some tr -> tr | None -> Trace.create engine in
  Sched.set_trace sched (Some trace);
  Trace.add_cpu_hook trace (fun name ->
      match Sched.running_cpu sched name with Some c -> c | None -> -1);
  let stats = Counters.create vm_counters in
  let node =
    {
      Mach_ipc.Transport.node_host = host;
      node_params = params;
      node_page_size = Phys_mem.page_size mem;
      node_stats = Counters.create Mach_ipc.Transport.ipc_counters;
      node_sched = sched;
      node_trace = trace;
    }
  in
  let queues = Page_queues.create () in
  (* The host's counter blocks go into the registry as they are: a
     snapshot reads them, an increment never touches the registry. *)
  Metrics.counters metrics ~subsystem:"vm" stats;
  Metrics.counters metrics ~subsystem:"ipc" node.Mach_ipc.Transport.node_stats;
  Metrics.counters metrics ~subsystem:"sched" (Sched.stats sched);
  Metrics.gauge metrics ~subsystem:"vm" "free_frames" (fun () -> Phys_mem.free_frames mem);
  Metrics.gauge metrics ~subsystem:"vm" "active_pages" (fun () ->
      Page_queues.active_count queues);
  Metrics.gauge metrics ~subsystem:"vm" "inactive_pages" (fun () ->
      Page_queues.inactive_count queues);
  Metrics.gauge metrics ~subsystem:"vm" "laundry_pages" (fun () ->
      Page_queues.laundry_count queues);
  Metrics.gauge metrics ~subsystem:"sched" "run_queued" (fun () -> Sched.queued sched);
  Metrics.gauge metrics ~subsystem:"sched" "affinity" (fun () -> Sched.affinity_entries sched);
  let fault_hist = Metrics.histogram metrics ~subsystem:"vm" "fault_us" in
  let cow_batch_hist = Metrics.histogram metrics ~subsystem:"vm" "cow_batch" in
  {
    engine;
    ctx;
    host;
    params;
    sched;
    mem;
    page_size = Phys_mem.page_size mem;
    node;
    kspace = Port_space.create ctx ~home:host;
    queues;
    stats;
    metrics;
    trace;
    fault_hist;
    objects_by_port = Hashtbl.create 64;
    objects_by_request = Hashtbl.create 64;
    cached_objects = Mach_util.Dlist.create ();
    cached_index = Hashtbl.create 64;
    object_cache_cap = 64;
    default_pager_port = None;
    next_obj_id = 1;
    reserved_frames = reserved;
    free_wait = Waitq.create ();
    pageout_wanted = Waitq.create ();
    pager_timeout_us;
    holdings = Hashtbl.create 32;
    next_write_id = 1;
    rescue_writer = None;
    enable_collapse = true;
    cow_batch_hist;
  }
