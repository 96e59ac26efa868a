(** Per-host kernel VM context.

    One [Kctx.t] exists per independent Mach kernel (per host). It owns
    the physical memory, the page queues, the kernel's own IPC identity
    (used for the external-pager protocol), the registry mapping memory
    object ports to internal object structures (§5.1's port → object
    lookup), and the reserved-pool accounting of §6.2.3. *)

open Vm_types

type t = {
  engine : Mach_sim.Engine.t;
  ctx : Mach_ipc.Context.t;
  host : int;
  params : Mach_hw.Machine.params;
  sched : Mach_sim.Sched.t;
      (** the host's processors: every {!charge} occupies one for its
          duration, so kernel work contends, migrates and scales *)
  mem : Mach_hw.Phys_mem.t;
  page_size : int;
  node : Mach_ipc.Transport.node;  (** the kernel's IPC node identity *)
  kspace : Mach_ipc.Port_space.t;  (** the kernel task's port space *)
  queues : Page_queues.t;
  stats : stats;
  metrics : Mach_util.Metrics.registry;
      (** the host's unified registry: the vm/ipc/sched counter blocks
          are registered at creation, pagers add theirs as they start;
          snapshot it for a vm_statistics-style full report *)
  trace : Mach_sim.Trace.t;
      (** the causal trace spine (shared across hosts in a cluster);
          disabled by default *)
  fault_hist : Mach_util.Metrics.histogram;
      (** per-fault latency in simulated us, observed by every
          {!Fault.handle} *)
  objects_by_port : (int, obj) Hashtbl.t;  (** memory-object port id → obj *)
  objects_by_request : (int, obj) Hashtbl.t;  (** pager-request port id → obj *)
  cached_objects : obj Mach_util.Dlist.t;
      (** unreferenced but persisting objects, LRU order (front =
          coldest); capped at [object_cache_cap], evictions terminate *)
  cached_index : (int, obj Mach_util.Dlist.node) Hashtbl.t;
      (** obj_id → cache node, so revival is O(1) instead of a scan *)
  mutable object_cache_cap : int;
  mutable default_pager_port : port option;
      (** where [pager_create] messages go; set at boot *)
  mutable next_obj_id : int;
  reserved_frames : int;  (** frames only privileged allocations may take *)
  free_wait : Mach_sim.Waitq.t;  (** woken when frames are freed *)
  pageout_wanted : Mach_sim.Waitq.t;  (** wakes the pageout daemon *)
  pager_timeout_us : float;
      (** how long a fault waits for an external manager (§6.2.1) *)
  mutable obj_terminator : t -> obj -> unit;
      (** how to terminate an unreferenced object; Pager_client installs
          the port-aware version at boot *)
  holdings : (int, holding) Hashtbl.t;
      (** write-id → frame parked until the manager releases it (§6.2.2) *)
  mutable next_write_id : int;
  mutable rescue_writer : (bytes -> unit) option;
      (** how to push unreleased pageout data to the default pager's
          backing store; installed by the default pager at boot *)
  mutable enable_collapse : bool;
      (** merge single-referenced anonymous shadow objects into their
          shadows after COW resolution — the classic chain-length
          optimisation; exposed as a switch for the ablation bench *)
  cow_batch_hist : Mach_util.Metrics.histogram;
      (** pages resolved per COW write fault (1 = no clustering won) *)
}

val data_write_release_timeout_us : float
(** §6.2.2: how long a manager may sit on pageout data (500 ms) before
    the kernel double-pages it to the default pager. *)

val cluster_pages : int
(** The clustering window (8): at most this many pages per
    pager_data_request on a hard read fault, per laundered data_write
    run, and per sequential COW copy-ahead. *)

val create :
  Mach_sim.Engine.t ->
  Mach_ipc.Context.t ->
  host:int ->
  params:Mach_hw.Machine.params ->
  mem:Mach_hw.Phys_mem.t ->
  ?reserved_frames:int ->
  ?pager_timeout_us:float ->
  ?trace:Mach_sim.Trace.t ->
  unit ->
  t
(** Each host gets its own metrics registry (merge snapshots for
    cluster totals). [trace] defaults to a fresh one; a cluster passes
    one shared trace so cross-host spans land in one buffer. *)

val fresh_obj_id : t -> int

val pages_of_bytes : t -> int -> int
val round_page : t -> int -> int

(** {2 Frame allocation with reserved-pool semantics (§6.2.3)} *)

val try_alloc_frame : t -> privileged:bool -> int option
(** Unprivileged allocations fail once only the reserved frames remain;
    privileged (pageout-path) allocations may dig into the pool. *)

val alloc_frame : t -> privileged:bool -> int
(** Blocking form: kicks the pageout daemon and waits for a free frame.
    Below the low watermark, unprivileged callers throttle while laundry
    is in flight — in-progress cleans (or the §6.2.2 rescue timer) will
    free frames, so waiting beats draining toward the reserve. If no
    pageout daemon was started this can block forever — the engine will
    report the deadlock. *)

val free_frame : t -> int -> unit
(** Return a frame and wake frame waiters. *)

val free_target : t -> int
(** The number of free frames the pageout daemon tries to maintain. *)

val free_high_watermark : t -> int
(** Alias of {!free_target}: below this the daemon reclaims. *)

val free_low_watermark : t -> int
(** Below this, unprivileged allocators throttle while laundry is in
    flight. Always above the reserved pool, at most half the high
    watermark. *)

val need_pageout : t -> bool

val charge : t -> float -> unit
(** Occupy one of the host's processors for a CPU cost on the calling
    thread (queueing behind other runnable threads when all processors
    are busy). *)
