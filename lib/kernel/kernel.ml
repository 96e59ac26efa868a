open Ktypes
module Engine = Mach_sim.Engine
module Machine = Mach_hw.Machine
module Phys_mem = Mach_hw.Phys_mem
module Disk = Mach_hw.Disk
module Net = Mach_hw.Net
module Kctx = Mach_vm.Kctx

type config = {
  params : Machine.params;
  phys_frames : int;
  page_size : int;
  paging_blocks : int;
  reserved_frames : int option;
  pager_timeout_us : float;
}

let default_config =
  {
    params = Machine.uniprocessor;
    phys_frames = 1024;
    page_size = 4096;
    paging_blocks = 4096;
    reserved_frames = None;
    pager_timeout_us = 2_000_000.0;
  }

(* reg.disk.* sums every disk a host drives: its paging disk, and the
   disks of any file server started on it. *)
let register_disk k disk =
  Mach_util.Metrics.counters k.k_kctx.Kctx.metrics ~subsystem:"disk" (Disk.stats disk)

let boot engine ctx net ?trace ~host config =
  let mem = Phys_mem.create ~frames:config.phys_frames ~page_size:config.page_size in
  let kctx =
    Kctx.create engine ctx ~host ~params:config.params ~mem
      ?reserved_frames:config.reserved_frames ~pager_timeout_us:config.pager_timeout_us
      ?trace ()
  in
  Mach_vm.Pager_client.install kctx;
  let paging_disk =
    Disk.create engine
      ~name:(Printf.sprintf "paging%d" host)
      ~blocks:config.paging_blocks ~block_size:config.page_size ()
  in
  let k =
    {
      k_host = host;
      k_engine = engine;
      k_ctx = ctx;
      k_net = net;
      k_kctx = kctx;
      k_params = config.params;
      k_sched = kctx.Kctx.sched;
      k_paging_disk = paging_disk;
      k_space = Mach_ipc.Port_space.create ctx ~home:host;
      k_tasks = [];
      k_next_task_id = 1;
      k_next_thread_id = 1;
      k_task_port_maker = None;
      k_thread_port_maker = None;
      k_default_pager = None;
    }
  in
  register_disk k paging_disk;
  (* Fabric-wide stats (net, live ports, reliable channels, chaos) are
     shared by every host; register them once, on host 0, so merged
     cluster snapshots don't multiply them. *)
  if host = 0 then begin
    let metrics = kctx.Kctx.metrics in
    Mach_util.Metrics.counters metrics ~subsystem:"net" (Net.stats net);
    Mach_util.Metrics.gauge metrics ~subsystem:"ipc" "ports_live" (fun () ->
        Mach_ipc.Context.live_ports ctx);
    Mach_util.Metrics.counters metrics ~subsystem:"chan" (Mach_ipc.Context.chan_stats ctx);
    Option.iter
      (fun c -> Mach_util.Metrics.counters metrics ~subsystem:"chaos" (Mach_sim.Chaos.stats c))
      (Net.chaos net)
  end;
  Pager_service.start kctx;
  Mach_vm.Pageout.start kctx;
  k.k_default_pager <- Some (Default_pager.start kctx ~disk:paging_disk);
  ignore (Task_server.start k);
  k

type system = {
  engine : Engine.t;
  ipc_ctx : Mach_ipc.Context.t;
  net : Net.t;
  kernel : kernel;
}

let create_system ?(config = default_config) () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let ipc_ctx = Mach_ipc.Context.create engine net in
  let kernel = boot engine ipc_ctx net ~host:0 config in
  { engine; ipc_ctx; net; kernel }

type cluster = {
  c_engine : Engine.t;
  c_ctx : Mach_ipc.Context.t;
  c_net : Net.t;
  c_kernels : kernel array;
  c_chaos : Mach_sim.Chaos.t option;
}

(* Attach a chaos oracle to a cluster's fabric: a faulty wire under the
   reliable channels, fault events on the shared trace, and failure
   hooks wired so a crash kills the host's ports (proxy-port death at
   every remote holder) and a heal/restart resynchronizes the channels. *)
let attach_chaos ctx net trace chaos =
  Net.set_chaos net (Some chaos);
  Mach_sim.Chaos.set_trace chaos (Some trace);
  Mach_sim.Chaos.on_crash chaos (fun host ->
      ignore (Mach_ipc.Context.crash_host ctx ~host));
  Mach_sim.Chaos.on_restart chaos (fun host -> Mach_ipc.Context.restart_host ctx ~host);
  Mach_sim.Chaos.on_heal chaos (fun a b -> Mach_ipc.Context.reset_link ctx a b)

let create_cluster ~hosts ?(config = default_config) ?net_latency_us ?net_us_per_byte
    ?chaos () =
  let engine = Engine.create () in
  let latency =
    match net_latency_us with Some l -> l | None -> config.params.Machine.net_latency_us
  in
  let per_byte =
    match net_us_per_byte with Some c -> c | None -> config.params.Machine.net_us_per_byte
  in
  let net = Net.create engine ~latency_us:latency ~us_per_byte:per_byte () in
  let ctx = Mach_ipc.Context.create engine net in
  (* One trace for the whole cluster: spans that cross hosts (NORMA
     faults served by a remote manager) land in one buffer in causal
     order. Each host keeps its own metrics registry. *)
  let trace = Mach_sim.Trace.create engine in
  (* MACH_CHAOS lets any existing cluster workload run under a fault
     plan without changing its code, e.g.
     MACH_CHAOS="seed=7,drop=0.1,dup=0.05,reorder=0.1,jitter=500". *)
  let chaos =
    match chaos with
    | Some _ -> chaos
    | None -> (
      match Sys.getenv_opt "MACH_CHAOS" with
      | Some spec when spec <> "" -> Some (Mach_sim.Chaos.of_spec spec)
      | Some _ | None -> None)
  in
  Option.iter (attach_chaos ctx net trace) chaos;
  let kernels = Array.init hosts (fun host -> boot engine ctx net ~trace ~host config) in
  { c_engine = engine; c_ctx = ctx; c_net = net; c_kernels = kernels; c_chaos = chaos }

let kctx k = k.k_kctx
let stats k = k.k_kctx.Kctx.stats
let engine k = k.k_engine
let free_frames k = Phys_mem.free_frames k.k_kctx.Kctx.mem
let metrics k = k.k_kctx.Kctx.metrics
let trace k = k.k_kctx.Kctx.trace
