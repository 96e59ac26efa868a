(** Kernel boot: assemble physical memory, the VM context, the pageout
    daemon, the pager service thread and the default pager into a
    running per-host kernel — and wire several such hosts into a
    NORMA cluster. *)

open Ktypes

type config = {
  params : Mach_hw.Machine.params;
  phys_frames : int;
  page_size : int;
  paging_blocks : int;  (** default pager backing store, in pages *)
  reserved_frames : int option;
  pager_timeout_us : float;
}

val default_config : config
(** VAX 11/780-class host: 1024 frames of 4 KB (4 MB), 4096-page paging
    area, 2 s manager timeout. *)

val boot :
  Mach_sim.Engine.t ->
  Mach_ipc.Context.t ->
  Mach_hw.Net.t ->
  ?trace:Mach_sim.Trace.t ->
  host:int ->
  config ->
  kernel
(** [trace] lets several hosts share one causal trace spine;
    {!create_cluster} passes the same trace to every boot. *)

(** A self-contained single-host system (most tests and examples). *)
type system = {
  engine : Mach_sim.Engine.t;
  ipc_ctx : Mach_ipc.Context.t;
  net : Mach_hw.Net.t;
  kernel : kernel;
}

val create_system : ?config:config -> unit -> system

(** A multi-host cluster sharing one network — the NORMA configuration
    of §7. *)
type cluster = {
  c_engine : Mach_sim.Engine.t;
  c_ctx : Mach_ipc.Context.t;
  c_net : Mach_hw.Net.t;
  c_kernels : kernel array;
  c_chaos : Mach_sim.Chaos.t option;
}

val create_cluster :
  hosts:int ->
  ?config:config ->
  ?net_latency_us:float ->
  ?net_us_per_byte:float ->
  ?chaos:Mach_sim.Chaos.t ->
  unit ->
  cluster
(** [chaos] attaches a fault oracle to the cluster fabric: the wire
    under the reliable channel layer drops/duplicates/reorders per the
    plan, fault events land on the shared trace, and crash/heal hooks
    are wired into the IPC context. When [chaos] is absent the
    [MACH_CHAOS] environment variable (a {!Mach_sim.Chaos.of_spec}
    string) is consulted, so any cluster workload can run under a fault
    plan unmodified. *)

val kctx : kernel -> Mach_vm.Kctx.t
val stats : kernel -> Mach_vm.Vm_types.stats
val engine : kernel -> Mach_sim.Engine.t
val free_frames : kernel -> int

val metrics : kernel -> Mach_util.Metrics.registry
(** The host's unified metrics registry (vm/ipc/sched counter blocks
    plus any pagers started on this host). *)

val register_disk : kernel -> Mach_hw.Disk.t -> unit
(** Add a disk's counters to the host's [reg.disk.*] keys, which sum
    every disk registered (the paging disk is registered at boot). *)

val trace : kernel -> Mach_sim.Trace.t
(** The causal trace spine (shared across a cluster's kernels). *)
