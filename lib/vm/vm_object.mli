(** Memory object structures and lifecycle (§5.2).

    An internal object structure exists for every memory object used in
    an address map, or whose manager has advised that caching is
    permitted. The structure records the ports naming the object, its
    size, the address-map reference count, and the shadow chain for
    copy-on-write. *)

open Vm_types

val create_anonymous : Kctx.t -> size:int -> obj
(** Zero-fill memory from [vm_allocate]: no pager until first pageout,
    temporary, not persistent. *)

val create_shadow : Kctx.t -> backs:obj -> offset:int -> size:int -> obj
(** A shadow object holding changes to copy-on-write data (§5.5). Takes
    a reference on [backs]. *)

val find_by_port : Kctx.t -> Vm_types.port -> obj option
(** The §5.1 lookup: memory-object port → internal structure (includes
    cached, unreferenced objects). *)

val create_external : Kctx.t -> memory_object:Vm_types.port -> size:int -> obj
(** Look up or create the internal structure for a manager-provided
    memory object. A cached object is revived (its pages keep their
    contents — this is the §9 cache-win). The returned object has one
    more reference. [pager_init] is NOT sent here; the {!Pager_client}
    does that on first mapping. *)

val deallocate : Kctx.t -> obj -> unit
(** Drop one reference. At zero, the object is either cached (manager
    called [pager_cache true]; past [kctx.object_cache_cap] the coldest
    cached object is evicted and terminated) or terminated:
    {!Pager_client.terminate} cleans its dirty pages back to the
    manager and releases its pages and ports. Shadow-chain references
    are released recursively, and when the released backing object
    survives with a single live shadower the chain is collapsed from
    that shadower — exiting a fork generation shortens the chain
    immediately instead of waiting for the survivor's next write
    fault. *)

val cache_is_member : obj -> bool
(** Whether the object currently sits in the unreferenced-object cache
    (diagnostic / tests). *)

type found =
  | Resident of page * int * bool
      (** the page, its depth (0 = [obj]), and [sole]: the walk asked
          for it ([~steal]), and each object below [obj] down to the
          page's owner is a live, pager-less, anonymous temporary whose
          page there no other object can see: every reference to it is
          a shadower, and every shadower but the one the walk came
          through holds its own resident page at that offset. Such a
          page may be stolen. *)
  | Paged of obj * int  (** a pager holds the data: ask it, at this offset *)
  | Nowhere  (** no data anywhere in the chain: zero-fill in [obj] *)

val walk : ?steal:bool -> obj -> offset:int -> found
(** Look for [offset] in [obj] one object at a time, as Mach's
    [vm_fault_page] does: a resident page ends the walk, then an object
    whose pager holds the offset; otherwise it goes one object down.
    [steal] (default false) asks for [sole]; without it [sole] is false
    and the walk checks nothing beyond the pages it probes. *)

val chain_depth : obj -> int
(** Number of backing links below this object (0 = no shadow chain). *)

val collapse : Kctx.t -> obj -> unit
(** Shadow-chain collapse: while this object's backing object is an
    anonymous temporary referenced only by it (and idle), pull the
    backing's pages up (where not already shadowed) and splice it out
    of the chain. Keeps chains short under fork-heavy workloads; a
    no-op when [kctx.enable_collapse] is false. *)

val resident_count : obj -> int
