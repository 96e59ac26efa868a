(** Core virtual-memory data structures (§5 of the paper).

    Memory objects and resident pages reference each other, so both
    records live here; the operation modules ({!Vm_object}, {!Vm_page},
    {!Vm_map}, {!Fault}, …) work over these types.

    Divergence note: the paper keeps a single global virtual-to-physical
    hash table chained through resident page structures plus a per-object
    page list. We keep one hash table per object, which serves both
    roles — lookup by (object, offset) and expedient teardown — with the
    same asymptotics. *)

module Waitq = Mach_sim.Waitq
module Ivar = Mach_sim.Ivar

type port = Mach_ipc.Message.port

(** Inheritance attribute of an address range (§3.3, [vm_inherit]). *)
type inheritance = Inherit_share | Inherit_copy | Inherit_none

let inheritance_to_string = function
  | Inherit_share -> "share"
  | Inherit_copy -> "copy"
  | Inherit_none -> "none"

(** What the kernel is doing with a resident page (§5). Each
    transition is one function in {!Vm_page}; the queue a page is on
    follows from its state.

    {v
                      demand                  fail
       Speculative ----------> Demanded -------------> Failed
           |     \                 |                     |
           |      \ resolve        | resolve             | resolve
           |       +-------------> v <-------------------+
           |                    Resident   (Q_active, Q_inactive)
     release_placeholder          |    ^
           |              launder |    | cleaned (release_write, or
           v                      v    |   the §6.2.2 rescue, which
         freed                  Cleaning    then frees the page)
                               (Q_laundry)
    v}

    [Demanded]: data requested for a faulter, who waits on it.
    [Speculative]: a cluster-in neighbour no faulter waits on yet.
    [Failed]: the request died with its file-backed manager.
    [Cleaning]: a [pager_data_write] naming the page is outstanding.
    Constant constructors: a transition allocates nothing. *)
type page_state = Resident | Demanded | Speculative | Failed | Cleaning

(** Which queue a resident page is on (§5.4). *)
type queue_state = Q_none | Q_active | Q_inactive | Q_laundry

type obj = {
  obj_id : int;
  mutable obj_size : int;  (** bytes *)
  mutable pager : pager_binding;
  obj_pages : (int, page) Hashtbl.t;  (** page-aligned offset → resident page *)
  mutable ref_count : int;  (** address-map references *)
  mutable can_persist : bool;  (** data manager called pager_cache(true) *)
  mutable backing : backing option;  (** shadow chain: where to look next *)
  mutable temporary : bool;
      (** contents need not outlive the object (shadow / anonymous) *)
  mutable obj_alive : bool;
  mutable shadowers : obj list;
      (** live objects whose [backing] points here — the copy engine
          walks this from the deallocate path to collapse chains that
          a write fault would never revisit *)
  mutable cow_next : int;
      (** offset just past this object's last copy-on-write batch: a COW
          fault landing exactly here is sequential and copies ahead *)
}

and backing = { back_obj : obj; back_offset : int }

and pager_binding =
  | No_pager  (** anonymous memory, never paged out: zero-fill *)
  | Pager of extpager

and extpager = {
  memory_object : port;  (** manager holds receive rights *)
  mutable request_port : port option;  (** kernel holds receive rights *)
  mutable name_port : port option;
  mutable initialized : bool;
  init_wait : unit Ivar.t;
  is_default : bool;  (** trusted default pager (§6.2.2) *)
  mutable pager_dead : bool;
      (** the manager's object port died; outstanding and future
          requests resolve locally (zero-fill or fault error) *)
}

and page = {
  mutable frame : int;  (** physical frame holding the data *)
  mutable p_obj : obj;
  mutable p_offset : int;  (** page-aligned offset within p_obj *)
  mutable wire_count : int;
  mutable p_state : page_state;
  busy_wait : Waitq.t;
  mutable page_lock : Mach_hw.Prot.t;  (** accesses forbidden by the manager *)
  mutable unlock_requested : bool;  (** pager_data_unlock already sent *)
  mutable dirty : bool;
  mutable q_state : queue_state;
  mutable q_node : page Mach_util.Dlist.node option;
  mutable mappings : (Mach_hw.Pmap.t * int) list;  (** (pmap, vpn) validations *)
  mutable grant_hold : int;
      (** faulters that just validated a translation and have not yet
          retried the access. A manager flush waits for the holds to
          drain, so a freshly granted page is used at least once before
          it is surrendered — otherwise two kernels write-sharing a hot
          page can revoke each other's grants forever (the Li & Hudak
          ping-pong livelock). *)
}

(** Data in transit, in ([Demanded], [Speculative]) or out ([Cleaning]):
    faulters wait on [busy_wait], and pageout and collapse skip the page. *)
let busy page =
  match page.p_state with
  | Demanded | Speculative | Cleaning -> true
  | Resident | Failed -> false

(** What to do with a laundered page once the manager releases the
    data: keep it resident and clean (absorbing refaults), or free it
    (flush semantics — the page must leave the cache). [`Keep] still
    frees the frame when memory pressure persists at release time. *)
type dispose = Dispose_keep | Dispose_free

(** A run of adjacent dirty pages shipped to a data manager by one
    [pager_data_write]. The pages stay resident and busy-cleaning
    (laundry queue) until the manager releases the data — or until the
    kernel rescues itself by paging the run out to the default pager
    (§6.2.2 double paging). Pages detached before the release arrives
    (object termination) park their frames in [h_frames] instead. *)
type holding = {
  h_write_id : int;
  h_obj : obj;
  h_offset : int;  (** run start *)
  h_data : bytes;  (** run contents as shipped, for the §6.2.2 rescue *)
  mutable h_pages : page list;  (** resident cleaning pages, offset order *)
  mutable h_frames : int list;  (** parked frames of detached pages *)
  h_dispose : dispose;
  mutable h_released : bool;
}

(** Kernel VM statistics, in the spirit of [vm_statistics] (Table 3-3):
    one block per host, reported as [reg.vm.*] in declaration order. *)
module Counters = Mach_util.Metrics.Counters

type stats = Counters.t

let vm_counters = Counters.layout ()
let vm_stat = Counters.declare vm_counters
let s_faults = vm_stat "faults"
let s_zero_fill = vm_stat "zero_fill"
let s_cow_faults = vm_stat "cow_faults"
let s_pageins = vm_stat "pageins"
let s_pageouts = vm_stat "pageouts"
let s_hits = vm_stat "hits" (* faults satisfied by a resident page *)
let s_reactivations = vm_stat "reactivations"
let s_unlock_requests = vm_stat "unlock_requests"
let s_flushes = vm_stat "flushes"
let s_objects_created = vm_stat "objects_created"
let s_pages_freed = vm_stat "pages_freed"
let s_data_requests = vm_stat "data_requests"
let s_data_provided = vm_stat "data_provided"
let s_data_unavailable = vm_stat "data_unavailable"
let s_pageout_to_default = vm_stat "pageout_to_default" (* §6.2.2 double-paging rescues *)
let s_collapses = vm_stat "collapses" (* shadow chains merged away *)
let s_fast_faults = vm_stat "fast_faults" (* resolved entirely on the fault fast path *)
let s_hint_hits = vm_stat "hint_hits" (* map lookups answered by the per-map hint *)
let s_hint_misses = vm_stat "hint_misses" (* map lookups that fell back to binary search *)
let s_burst_entered = vm_stat "burst_entered" (* neighbor translations pre-entered after a fault *)
let s_cluster_pages = vm_stat "cluster_pages" (* extra pages asked for by clustered data requests *)
let s_slow_busy = vm_stat "slow_busy" (* slow-path entries: waited on a busy page *)
let s_slow_lock = vm_stat "slow_lock" (* slow-path entries: waited on a manager unlock *)
let s_slow_pager = vm_stat "slow_pager" (* slow-path entries: issued a pager request *)
let s_data_writes = vm_stat "data_writes" (* pager_data_write messages (one per run) *)
let s_laundered = vm_stat "laundered" (* pages written back while kept resident *)
let s_clean_hits = vm_stat "clean_hits" (* refaults absorbed by a cleaning/clean-resident page *)
let s_pager_deaths = vm_stat "pager_deaths" (* manager object ports that died *)
(* placeholder pages zero-filled when their pager died *)
let s_death_zero_fills = vm_stat "death_zero_fills"
(* placeholder pages failed with an error when their pager died *)
let s_death_errors = vm_stat "death_errors"
(* COW resolutions that renamed the page up the chain instead of copying
   it (sole user: no copy, no 400 µs charge) *)
let s_cow_steals = vm_stat "cow_steals"
(* extra pending-copy pages resolved by a neighbor's COW fault *)
let s_cow_batched = vm_stat "cow_batched"
let s_slow_error = vm_stat "slow_error" (* slow-path entries: fault on an error page *)
let s_chain_depth_peak = vm_stat "chain_depth_peak" (* deepest shadow chain walked by a fault *)
(* cached persistent objects terminated by LRU pressure *)
let s_object_cache_evictions = vm_stat "object_cache_evictions"
