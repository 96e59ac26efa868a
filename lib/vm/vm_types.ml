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

(** Kernel VM statistics, in the spirit of [vm_statistics] (Table 3-3). *)
type stats = {
  mutable s_faults : int;
  mutable s_zero_fill : int;
  mutable s_cow_faults : int;
  mutable s_pageins : int;
  mutable s_pageouts : int;
  mutable s_hits : int;  (** faults satisfied by a resident page *)
  mutable s_reactivations : int;
  mutable s_unlock_requests : int;
  mutable s_flushes : int;
  mutable s_objects_created : int;
  mutable s_pages_freed : int;
  mutable s_data_requests : int;
  mutable s_data_provided : int;
  mutable s_data_unavailable : int;
  mutable s_pageout_to_default : int;  (** §6.2.2 double-paging rescues *)
  mutable s_collapses : int;  (** shadow chains merged away *)
  mutable s_fast_faults : int;  (** resolved entirely on the fault fast path *)
  mutable s_hint_hits : int;  (** map lookups answered by the per-map hint *)
  mutable s_hint_misses : int;  (** map lookups that fell back to binary search *)
  mutable s_burst_entered : int;  (** neighbor translations pre-entered after a fault *)
  mutable s_cluster_pages : int;  (** extra pages asked for by clustered data requests *)
  mutable s_slow_busy : int;  (** slow-path entries: waited on a busy page *)
  mutable s_slow_lock : int;  (** slow-path entries: waited on a manager unlock *)
  mutable s_slow_pager : int;  (** slow-path entries: issued a pager request *)
  mutable s_data_writes : int;  (** pager_data_write messages (one per run) *)
  mutable s_laundered : int;  (** pages written back while kept resident *)
  mutable s_clean_hits : int;  (** refaults absorbed by a cleaning/clean-resident page *)
  mutable s_pager_deaths : int;  (** manager object ports that died *)
  mutable s_death_zero_fills : int;
      (** placeholder pages zero-filled when their pager died *)
  mutable s_death_errors : int;
      (** placeholder pages failed with an error when their pager died *)
  mutable s_cow_steals : int;
      (** COW resolutions that renamed the page up the chain instead of
          copying it (sole user: no copy, no 400 µs charge) *)
  mutable s_cow_batched : int;
      (** extra pending-copy pages resolved by a neighbor's COW fault *)
  mutable s_slow_error : int;  (** slow-path entries: fault on an error page *)
  mutable s_chain_depth_peak : int;  (** deepest shadow chain walked by a fault *)
  mutable s_object_cache_evictions : int;
      (** cached persistent objects terminated by LRU pressure *)
}

let fresh_stats () =
  {
    s_faults = 0;
    s_zero_fill = 0;
    s_cow_faults = 0;
    s_pageins = 0;
    s_pageouts = 0;
    s_hits = 0;
    s_reactivations = 0;
    s_unlock_requests = 0;
    s_flushes = 0;
    s_objects_created = 0;
    s_pages_freed = 0;
    s_data_requests = 0;
    s_data_provided = 0;
    s_data_unavailable = 0;
    s_pageout_to_default = 0;
    s_collapses = 0;
    s_fast_faults = 0;
    s_hint_hits = 0;
    s_hint_misses = 0;
    s_burst_entered = 0;
    s_cluster_pages = 0;
    s_slow_busy = 0;
    s_slow_lock = 0;
    s_slow_pager = 0;
    s_data_writes = 0;
    s_laundered = 0;
    s_clean_hits = 0;
    s_pager_deaths = 0;
    s_death_zero_fills = 0;
    s_death_errors = 0;
    s_cow_steals = 0;
    s_cow_batched = 0;
    s_slow_error = 0;
    s_chain_depth_peak = 0;
    s_object_cache_evictions = 0;
  }

let stats_to_list s =
  [
    ("faults", s.s_faults);
    ("zero_fill", s.s_zero_fill);
    ("cow_faults", s.s_cow_faults);
    ("pageins", s.s_pageins);
    ("pageouts", s.s_pageouts);
    ("hits", s.s_hits);
    ("reactivations", s.s_reactivations);
    ("unlock_requests", s.s_unlock_requests);
    ("flushes", s.s_flushes);
    ("objects_created", s.s_objects_created);
    ("pages_freed", s.s_pages_freed);
    ("data_requests", s.s_data_requests);
    ("data_provided", s.s_data_provided);
    ("data_unavailable", s.s_data_unavailable);
    ("pageout_to_default", s.s_pageout_to_default);
    ("collapses", s.s_collapses);
    ("fast_faults", s.s_fast_faults);
    ("hint_hits", s.s_hint_hits);
    ("hint_misses", s.s_hint_misses);
    ("burst_entered", s.s_burst_entered);
    ("cluster_pages", s.s_cluster_pages);
    ("slow_busy", s.s_slow_busy);
    ("slow_lock", s.s_slow_lock);
    ("slow_pager", s.s_slow_pager);
    ("data_writes", s.s_data_writes);
    ("laundered", s.s_laundered);
    ("clean_hits", s.s_clean_hits);
    ("pager_deaths", s.s_pager_deaths);
    ("death_zero_fills", s.s_death_zero_fills);
    ("death_errors", s.s_death_errors);
    ("cow_steals", s.s_cow_steals);
    ("cow_batched", s.s_cow_batched);
    ("slow_error", s.s_slow_error);
    ("chain_depth_peak", s.s_chain_depth_peak);
    ("object_cache_evictions", s.s_object_cache_evictions);
  ]
