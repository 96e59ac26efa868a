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

val reference : obj -> unit

val deallocate : Kctx.t -> obj -> unit
(** Drop one reference. At zero, the object is either cached (manager
    called [pager_cache true]; past [kctx.object_cache_cap] the coldest
    cached object is evicted and terminated) or terminated via
    [kctx.obj_terminator] (normally {!Pager_client}'s, installed at
    boot). Shadow-chain references are released recursively, and when
    the released backing object survives with a single live shadower
    the chain is collapsed from that shadower — exiting a fork
    generation shortens the chain immediately instead of waiting for
    the survivor's next write fault. *)

val cache_is_member : Kctx.t -> obj -> bool
(** Whether the object currently sits in the unreferenced-object cache
    (diagnostic / tests). *)

val destroy_pages : Kctx.t -> obj -> unit
(** Free every resident page (waiting out busy ones). *)

val lookup_chain : obj -> offset:int -> (page * obj * int) option
(** Walk the shadow chain looking for a resident page covering
    [offset] (an offset in the *top* object): returns the page, the
    object that owns it and the chain depth (0 = top). *)

val chain_has_pager : obj -> offset:int -> (obj * int) option
(** The first object in the chain (starting at [obj]) that has a pager
    binding, with [offset] translated into that object; [None] if the
    whole chain is anonymous. *)

val chain_depth : obj -> int
(** Number of backing links below this object (0 = no shadow chain). *)

val collapse : Kctx.t -> obj -> unit
(** Shadow-chain collapse: while this object's backing object is an
    anonymous temporary referenced only by it (and idle), pull the
    backing's pages up (where not already shadowed) and splice it out
    of the chain. Keeps chains short under fork-heavy workloads; a
    no-op when [kctx.enable_collapse] is false. *)

val resident_count : obj -> int
val pp : Format.formatter -> obj -> unit
